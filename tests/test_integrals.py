import gc
import json
import math
import os
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nestloc import integrals, vertex
from nestloc.characters import LaurentPoly
from nestloc.combinatorics import (
    MultiPartition,
    Partition,
    euler_product_coefficient,
    multipartitions,
    nested_chains,
)
from nestloc.harness import _sampled_case, run_scenario, scenario_from_entry
from nestloc.errors import DegreeMismatchError, NonGenericSpecError, ZeroWeightError
from nestloc.integrals import (
    SPEC_HIGH,
    SPEC_LOW,
    ChernFactor,
    CoFactor,
    Insertion,
    Integrand,
    WeightSpec,
    chern_series,
    euler_class,
    insertion_basis,
    integrate_ambient_batch,
    integrate_virtual_batch,
    k_theory_chi,
    sample_specs,
)
from nestloc.series import binomial, line_factor
from nestloc.toric import SURFACES, bundle_by_label, line_bundle, p1xp1, p2
from nestloc.vertex import co_class, tangent_char, taut_char, virtual_tangent_char

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: O, O(1) and O(2) on p2
O, O1, O2 = (line_bundle(p2(), d) for d in range(3))


def lp(terms):
    return LaurentPoly(terms)


def test_binomial_generalized():
    assert binomial(5, 2) == 10
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3
    assert binomial(3, 0) == 1
    assert binomial(3, -1) == 0


def test_chern_series_examples():
    spec = WeightSpec(1, 0)
    assert chern_series(LaurentPoly.zero(), spec, 3) == (1, 0, 0, 0)
    assert chern_series(LaurentPoly.monomial(1, 0), spec, 2) == (1, 1, 0)
    spec23 = WeightSpec(2, 3)
    # (1+2t)^2 (1+3t) has rank 3: every coefficient above it is 0
    char = lp({(1, 0): 2, (0, 1): 1})
    assert chern_series(char, spec23, 6) == (1, 7, 16, 12, 0, 0, 0)
    # multiplicity 3: (1+2t)^3
    assert chern_series(lp({(1, 0): 3}), WeightSpec(2, 5), 4) == (1, 6, 12, 8, 0)
    # a series is of an honest character: (1+2t)/(1+3t) and (1+t)/(1+2t)^2,
    # the negative term first in `terms()`, are refused
    with pytest.raises(ValueError):
        chern_series(lp({(1, 0): 1, (0, 1): -1}), spec23, 2)
    char = lp({(0, 1): -2, (1, 0): 1})
    assert [mult for _, mult in char.terms()] == [-2, 1]
    for order in (4, 0):
        with pytest.raises(ValueError):
            chern_series(char, WeightSpec(1, 2), order)


def test_line_factor_updates_up_to_the_degree_reached():
    coeffs = [1, 0, 0, 0]
    assert line_factor(coeffs, 2, 2, 0) == 2
    assert coeffs == [1, 4, 4, 0]
    assert line_factor(coeffs, 1, 2, 2) == 3  # capped at the order
    assert coeffs == [1, 6, 13, 12]
    with pytest.raises(ValueError):
        line_factor(coeffs, 1, -1, 3)
    assert coeffs == [1, 6, 13, 12]


def test_chern_series_constant_term_is_one():
    spec = WeightSpec(5, 7)
    char = lp({(1, 0): 2, (0, 1): 3, (1, 1): 1, (0, 0): 4})
    assert chern_series(char, spec, 5)[0] == 1
    with pytest.raises(ValueError):
        chern_series(lp({(1, 0): 2, (0, 1): -3, (1, 1): 1, (0, 0): 4}), spec, 5)


# -- slow oracle for the in-place Chern series --------------------------------


def reference_line_factor(weight_value, multiplicity, order):
    """(1 + w tau)^m truncated at tau^order; m may be negative (generalized
    binomials), as it may in no series of the engine."""
    coeffs = [1]
    power = 1
    for j in range(1, order + 1):
        power *= weight_value
        coeffs.append(binomial(multiplicity, j) * power)
    return coeffs


def reference_chern_series(char, spec, order):
    """The product the in-place update replaced: one binomial line factor
    per nonzero weight, multiplied in by a dense truncated product."""
    out = [1] + [0] * order
    for (a, b), mult in char.terms():
        value = a * spec.s1 + b * spec.s2
        if value == 0:
            continue
        b = reference_line_factor(value, mult, order)
        step = [0] * (order + 1)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                step[i + j] += out[i] * b[j]
        out = step
    return tuple(out)


signed_specs = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda s: s != (0, 0))


@st.composite
def characters_at_spec(draw):
    """A character with signed multiplicities and a signed integer spec;
    some exponents are multiples of (s2, -s1), so they pair to zero."""
    s1, s2 = draw(signed_specs)
    exponent = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    zero_pairing = st.integers(-2, 2).map(lambda k: (k * s2, -k * s1))
    terms = draw(
        st.lists(
            st.tuples(st.one_of(exponent, zero_pairing), st.integers(-4, 4)), max_size=8
        )
    )
    return lp(terms), WeightSpec(s1, s2)


@settings(max_examples=300, deadline=None)
@given(characters_at_spec(), st.integers(0, 12))
def test_chern_series_matches_binomial_product(char_spec, order):
    """The honest part of a character matches the binomial product; the
    whole character is refused where a nonzero weight has a negative
    multiplicity, and a weight-zero term of any sign contributes unity."""
    char, spec = char_spec
    honest = lp([(exp, mult) for exp, mult in char.terms() if mult > 0])
    assert chern_series(honest, spec, order) == reference_chern_series(honest, spec, order)
    if any(mult < 0 and a * spec.s1 + b * spec.s2 for (a, b), mult in char.terms()):
        with pytest.raises(ValueError):
            chern_series(char, spec, order)
    else:
        assert chern_series(char, spec, order) == reference_chern_series(char, spec, order)


@st.composite
def honest_characters_at_spec(draw):
    """An honest character, weight-zero terms and exponents that pair to 0
    at the spec among its terms, and a signed integer spec."""
    char, spec = draw(characters_at_spec())
    return lp([(exp, abs(mult)) for exp, mult in char.terms()]), spec


@settings(max_examples=300, deadline=None)
@given(honest_characters_at_spec())
def test_top_class_of_an_honest_character_is_its_weight_product(char_spec):
    """What `ambient_measure` reads for c_r of a co-class of rank r: the
    weight product, 0 where a term pairs to 0, is the top coefficient of
    the series and of the binomial product."""
    char, spec = char_spec
    rank = char.rank_eval()
    top = math.prod((a * spec.s1 + b * spec.s2) ** mult for (a, b), mult in char.terms())
    assert chern_series(char, spec, rank)[rank] == top
    assert reference_chern_series(char, spec, rank)[rank] == top


def test_chern_series_cache_stores_nothing_after_a_run():
    # a one-shot run reads no series twice, so the cache only counts calls
    integrals._chern_series_cached.cache_clear()
    report = run_scenario(scenario_from_entry({"kind": "pushforward", "n": [2, 1]}))
    assert report["verdict"] == "pass"
    info = integrals._chern_series_cached.cache_info()
    assert (info.hits, info.currsize) == (0, 0)
    assert info.misses > 0
    spec = sample_specs(1729, 1)[0]
    trivial = p2().trivial
    for mp1 in multipartitions(p2(), 2):
        for mp2 in multipartitions(p2(), 1):
            char = co_class(p2(), mp1, mp2, trivial)
            for order in (3, 5):
                assert chern_series(char, spec, order) == reference_chern_series(char, spec, order)
        char = tangent_char(p2(), mp1)
        assert chern_series(char, spec, 4) == reference_chern_series(char, spec, 4)
    assert integrals._chern_series_cached.cache_info().currsize == 0


# Carlsson-Okounkov: sum_n q^n int_{S^[n]} c_2n(E_L) = prod_m (1-q^m)^(2-2chi(L)-e(S))
# for the twisted diagonal class E_L = co_class(S, mp, mp, L) of rank 2n.
# At these points E_L is an honest representation (no negative
# multiplicity), as `chern_series` requires.
CARLSSON_OKOUNKOV = [
    (p2, (0,), (1, 3, 9, 22, 51)),
    (p2, (1,), (1, 7, 35, 140, 490)),
    (p2, (2,), (1, 13, 104, 637, 3276)),
    (p1xp1, (0, 0), (1, 4, 14, 40)),
    (p1xp1, (1, 0), (1, 6, 27, 98)),
    (p1xp1, (0, 1), (1, 6, 27, 98)),
]


@pytest.mark.parametrize(
    "surface_fn,degrees,expected",
    CARLSSON_OKOUNKOV,
    ids=[f"{fn.__name__}-O{degrees}".replace(",)", ")") for fn, degrees, _ in CARLSSON_OKOUNKOV],
)
def test_twisted_diagonal_class_matches_carlsson_okounkov(surface_fn, degrees, expected):
    surface = surface_fn()
    e = 2 * surface.chi(*degrees) + surface.euler_number - 2
    assert tuple(euler_product_coefficient(int(e), n) for n in range(len(expected))) == expected
    assert carlsson_okounkov_mismatches(surface, degrees, expected) == []


def carlsson_okounkov_mismatches(surface, degrees, expected):
    """Specs at which sum_mp c_2n(E_L) / e(T) differs from `expected`.

    The characters are read from the `vertex` module at call time, so a
    monkeypatched `co_class` or `tangent_char` is the one checked."""
    bundle = line_bundle(surface, *degrees)
    bad = []
    for spec in (WeightSpec(1013, 2027), WeightSpec(-3001, 1999)):
        got = []
        for n in range(len(expected)):
            total = Fraction(0)
            for mp in multipartitions(surface, n):
                top = chern_series(vertex.co_class(surface, mp, mp, bundle), spec, 2 * n)[2 * n]
                total += top / euler_class(vertex.tangent_char(surface, mp), spec)
            got.append(total)
        if tuple(got) != expected:
            bad.append(spec.to_text())
    return bad


# Danila (2001), Scala (2009): H*(S^[n], L^[n]) = H*(S, L) (x) S^{n-1} H*(S, O_S),
# and H*(S, O_S) is the trivial character 1 on these toric surfaces, so the
# equivariant chi(S^[n], L^[n]) equals chi(S, L) for every n >= 1.
TAUTOLOGICAL_CHI = [
    (p2, (0,)), (p2, (1,)), (p2, (2,)), (p2, (-1,)), (p2, (-4,)),
    (p1xp1, (0, 0)), (p1xp1, (1, 0)), (p1xp1, (2, 1)), (p1xp1, (-1, 3)),
]
#: a rational point of the torus where t^w = 1 only for w = 0 (2, 3, 5, 7 are distinct primes)
CHI_POINT = (Fraction(2, 3), Fraction(5, 7))


def at_chi_point(poly):
    """The Laurent polynomial `poly` evaluated at t = CHI_POINT."""
    t1, t2 = CHI_POINT
    return sum((c * t1**a * t2**b for (a, b), c in poly.terms()), Fraction(0))


def tautological_chi(surface, bundle, n):
    """sum_mp ch(L^[n]_mp) / prod_w (1 - t^{-w})^{m_w} at t = CHI_POINT, over
    the fixed points mp of S^[n], the w running over the tangent weights at mp.

    The characters are read from the `vertex` module at call time, so a
    monkeypatched `taut_char` or chart term is the one checked."""
    total = Fraction(0)
    for mp in multipartitions(surface, n):
        numerator = at_chi_point(vertex.taut_char(surface, bundle, mp))
        denominator = Fraction(1)
        for (a, b), m in vertex.tangent_char(surface, mp).terms():
            denominator *= (1 - at_chi_point(LaurentPoly.monomial(-a, -b))) ** m
        total += numerator / denominator
    return total


def tautological_chi_mismatches(surface, degrees):
    """(n, chi(S^[n], L^[n]), chi(S, L)) for each n = 1..4 where the two
    differ; chi(S, L) is N / D of `k_theory_chi` at CHI_POINT, which holds
    for the bundles without sections too."""
    bundle = line_bundle(surface, *degrees)
    num, den = k_theory_chi(surface, bundle)
    want = at_chi_point(num) / at_chi_point(den)
    return [(n, got, want) for n in range(1, 5)
            if (got := tautological_chi(surface, bundle, n)) != want]


@pytest.mark.parametrize(
    "surface_fn,degrees",
    TAUTOLOGICAL_CHI,
    ids=[f"{fn.__name__}-O{degrees}".replace(",)", ")") for fn, degrees in TAUTOLOGICAL_CHI],
)
def test_tautological_chi_matches_danila_scala(surface_fn, degrees):
    assert tautological_chi_mismatches(surface_fn(), degrees) == []


def test_euler_class_examples():
    assert euler_class(lp({(1, 0): 1, (0, 1): 1}), WeightSpec(1, 1)) == 1
    assert euler_class(lp({(1, 0): 1, (0, 1): -1}), WeightSpec(2, 3)) == Fraction(2, 3)


def test_euler_class_zero_weight_error():
    char = lp({(0, 0): 1, (1, 0): 2})
    with pytest.raises(ZeroWeightError):
        euler_class(char, WeightSpec(1, 1))


def test_euler_class_non_generic_spec_error():
    char = lp({(1, -1): 1})
    with pytest.raises(NonGenericSpecError):
        euler_class(char, WeightSpec(3, 3))


def test_ambient_sum_looks_up_each_euler_class_once_per_factor(monkeypatch):
    """c_7 of a co-class of rank 6 vanishes at all 22 x 22 fixed points of
    p2 (3,3); the Euler class of each factor is still looked up once per
    multipartition, not once per point."""
    calls = []

    def counted(char, spec):
        calls.append(char)
        return euler_class(char, spec)

    monkeypatch.setattr(integrals, "euler_class", counted)
    insertion = Insertion((ChernFactor(0, O, 5),))
    co = [CoFactor(0, 7, O1)]
    assert integrate_ambient_batch(p2(), (3, 3), [insertion], WeightSpec(1013, 2027), co) == [0]
    assert len(multipartitions(p2(), 3)) == 22
    assert len(calls) == 44


@pytest.mark.parametrize("surface", [p2(), p1xp1()])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_euler_count_localization(surface, n):
    expected = len(multipartitions(surface, n))
    insertion = Insertion((ChernFactor(0, None, 2 * n),))
    for spec in sample_specs(3, 3):
        assert integrate_ambient_batch(surface, (n,), [insertion], spec)[0] == expected


#: sizes of the Fubini rows: ambient products of two and three factors
FUBINI_SIZES = [(1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1)]


def fubini_rows():
    """(surface, sizes, spec) of every Fubini row: both surfaces, each of
    FUBINI_SIZES, two sampled specs."""
    return [(surface, sizes, spec) for surface in (p2(), p1xp1()) for sizes in FUBINI_SIZES
            for spec in sample_specs(47, 2)]


def fubini_mismatches():
    """(surface, sizes, spec, value) of each Fubini row where the kernel's
    integral of prod_m c_2n_m(T@m) over S^[n_1] x ... x S^[n_k] differs
    from prod_m e(S^[n_m]), Goettsche's counts.  Each factor's Euler class
    reads its own factor's tangent character, so a kernel that reads a
    factor's character at the wrong point is seen here.

    `integrals.integrate_ambient_batch` is read at call time, so a
    monkeypatched kernel is the one checked."""
    bad = []
    for surface, sizes, spec in fubini_rows():
        insertion = Insertion(tuple(ChernFactor(m, None, 2 * n) for m, n in enumerate(sizes)))
        expected = math.prod(euler_product_coefficient(surface.euler_number, n) for n in sizes)
        (value,) = integrals.integrate_ambient_batch(surface, sizes, [insertion], spec)
        if value != expected:
            bad.append((surface.name, sizes, spec, value))
    return bad


def test_product_of_top_tangent_classes_is_the_product_of_euler_counts():
    assert len(fubini_rows()) == 20
    assert fubini_mismatches() == []


def test_taut_square_on_p2():
    # S^[1] = P^2 and taut(O(1))^[1] = O(1): int h^2 = 1
    insertion = Insertion((ChernFactor(0, O1, 1), ChernFactor(0, O1, 1)))
    spec = sample_specs(5, 1)[0]
    assert integrate_ambient_batch(p2(), (1,), [insertion], spec)[0] == 1


def test_degree_mismatch_ambient():
    insertion = Insertion((ChernFactor(0, O1, 1),))
    with pytest.raises(DegreeMismatchError):
        integrate_ambient_batch(p2(), (1,), [insertion], WeightSpec(1, 2))[0]


def test_degree_mismatch_virtual():
    insertion = Insertion((ChernFactor(0, O1, 1),))
    with pytest.raises(DegreeMismatchError):
        integrate_virtual_batch(p2(), (1, 1), [insertion], WeightSpec(1, 2))[0]


def test_negative_factor_degree_is_refused():
    # total degree 2 = dim S^[1], but c_{-1} is not a Chern class
    insertion = Insertion((ChernFactor(0, O1, 3), ChernFactor(0, O1, -1)))
    with pytest.raises(DegreeMismatchError, match="got factor 1, degree -1 in monomial 1"):
        integrate_ambient_batch(p2(), (1,), [insertion], WeightSpec(1, 2))[0]


def test_virtual_degenerate_sizes():
    spec = WeightSpec(3, 5)
    assert integrate_virtual_batch(p2(), (0, 0), [Insertion(())], spec)[0] == 1


def test_virtual_spec_independence():
    insertion = Insertion((ChernFactor(0, O1, 3),))
    values = {
        integrate_virtual_batch(p2(), (2, 1), [insertion], spec)[0] for spec in sample_specs(9, 3)
    }
    assert len(values) == 1


def test_pushforward_identity_small():
    # the acceptance identity at (1,1): ambient with c_2(co) equals virtual
    basis = insertion_basis(p2(), (1, 1), 2)
    spec = sample_specs(13, 1)[0]
    ambient = integrate_ambient_batch(p2(), (1, 1), basis, spec, [CoFactor(0, 2, O)])
    virtual = integrate_virtual_batch(p2(), (1, 1), basis, spec)
    assert ambient == virtual
    assert any(v != 0 for v in virtual)


def test_pushforward_known_value_diagonal_taut_pair():
    # c_2(co) . c1(taut O(1) on factor 1) . c1(taut O(1) on factor 2) over
    # P^2 x P^2 localizes to the diagonal: both routes give int h^2 = 1
    insertion = Insertion((ChernFactor(0, O1, 1), ChernFactor(1, O1, 1)))
    for spec in sample_specs(37, 3):
        ambient = integrate_ambient_batch(p2(), (1, 1), [insertion], spec, [CoFactor(0, 2, O)])[0]
        virtual = integrate_virtual_batch(p2(), (1, 1), [insertion], spec)[0]
        assert ambient == virtual == 1


def test_insertion_basis_degree_zero():
    assert insertion_basis(p2(), (1,), 0) == (Insertion(()),)


def test_insertion_basis_restricted_battery():
    got = insertion_basis(p2(), (1,), 1)
    assert got == tuple(Insertion((ChernFactor(0, b, 1),)) for b in (O, O1, O2))
    assert [ins.label() for ins in got] == [f"c1({label}@1)" for label in p2().battery]


def test_insertion_basis_deterministic_and_duplicate_free():
    basis = insertion_basis(p2(), (2, 1), 3)
    assert basis == insertion_basis(p2(), (2, 1), 3)
    labels = [ins.label() for ins in basis]
    assert len(set(labels)) == len(labels)
    assert all(ins.total_degree == 3 for ins in basis)


def test_insertion_basis_counts_golden():
    with open(os.path.join(GOLDEN, "insertion_basis_counts.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    for row in table:
        surface = SURFACES[row["surface"]]
        got = len(insertion_basis(surface, tuple(row["n"]), row["degree"]))
        assert got == row["count"], row


def test_consistency_run_fixed_point_count():
    insertion = Insertion((ChernFactor(0, None, 4),))
    specs = sample_specs(17, 3)
    values = {integrate_ambient_batch(p2(), (2,), [insertion], spec)[0] for spec in specs}
    assert values == {9}


def test_consistency_run_detects_spec_dependence():
    char = lp({(1, 0): 1, (0, 1): 1})
    specs = sample_specs(19, 3)
    values = [euler_class(char, spec) for spec in specs]
    case = _sampled_case({}, specs, values, values, "mismatch")
    assert case["verdict"] == "fail"
    assert case["diagnostic"] == "SpecDependence: values differ"


def test_sample_specs_deterministic_and_generic():
    a = sample_specs(42, 3)
    b = sample_specs(42, 3)
    assert a == b
    assert len(set(a)) == 3
    import math

    for spec in a:
        assert type(spec.s1) is int and type(spec.s2) is int
        assert math.gcd(spec.s1, spec.s2) == 1
        assert spec.s1 >= 1009 and spec.s2 >= 1009


def test_zero_weight_chain_diagnostic_names_chain():
    # a synthetic surface cannot be built (surfaces are closed data), so
    # inject the zero weight through a tangent-character cache poke instead:
    # the public route is euler_class, which the virtual integrator wraps.
    char = lp({(0, 0): 1, (1, 0): 1})
    with pytest.raises(ZeroWeightError) as err:
        euler_class(char, WeightSpec(1, 2))
    assert "weight-zero" in str(err.value)


def test_linearity_of_localization_sums():
    # the engine respects linearity: evaluating the combined integrand
    # fixed point by fixed point equals the sum of per-insertion integrals
    from itertools import product

    surface = p2()
    spec = sample_specs(31, 1)[0]
    phi1 = Insertion((ChernFactor(0, O1, 4), ChernFactor(1, O1, 2)))
    phi2 = Insertion(
        (ChernFactor(0, O1, 3), ChernFactor(0, O2, 1), ChernFactor(1, O2, 2))
    )
    a, b = Fraction(3), Fraction(-5, 2)

    def value_of(ins, mps):
        out = Fraction(1)
        for f in ins.factors:
            char = taut_char(surface, f.bundle, mps[f.factor])
            out *= chern_series(char, spec, f.degree)[f.degree]
        return out

    combined = Fraction(0)
    for mps in product(multipartitions(surface, 2), multipartitions(surface, 1)):
        denom = Fraction(1)
        for mp in mps:
            denom *= euler_class(tangent_char(surface, mp), spec)
        combined += (a * value_of(phi1, mps) + b * value_of(phi2, mps)) / denom
    separate = integrate_ambient_batch(surface, (2, 1), [phi1, phi2], spec, [])
    assert combined == a * separate[0] + b * separate[1]


# -- slow oracle for the integer localization kernel -------------------------


def reference_localize(surface, insertions, spec, points):
    """The Fraction loop the integer kernel replaced: one multiply-add per
    (fixed point, insertion, factor), each factor's series expanded to its
    own degree."""
    totals = [Fraction(0)] * len(insertions)
    for steps, weight in points:
        for i, ins in enumerate(insertions):
            value = weight
            for f in ins.factors:
                if f.bundle is None:
                    char = tangent_char(surface, steps[f.factor])
                else:
                    char = taut_char(surface, f.bundle, steps[f.factor])
                value *= chern_series(char, spec, f.degree)[f.degree]
            totals[i] += value
    return totals


def co_value(surface, mps, co_factors, spec):
    out = 1
    for c in co_factors:
        char = co_class(surface, mps[c.left], mps[c.left + 1], c.bundle)
        out *= chern_series(char, spec, c.degree)[c.degree]
    return out


def reference_ambient_points(surface, sizes, spec, co_factors):
    """(steps, co / e(T)) at every tuple of fixed points, zero weights too."""
    points = []
    for mps in product(*(multipartitions(surface, n) for n in sizes)):
        denom = Fraction(1)
        for mp in mps:
            denom *= euler_class(tangent_char(surface, mp), spec)
        points.append((mps, co_value(surface, mps, co_factors, spec) / denom))
    return points


def reference_virtual_points(surface, sizes, spec):
    return [
        (chain.steps, 1 / euler_class(virtual_tangent_char(surface, chain), spec))
        for chain in nested_chains(surface, sizes)
    ]


def reference_ambient(surface, sizes, insertions, spec, co_factors):
    points = reference_ambient_points(surface, sizes, spec, co_factors)
    return reference_localize(surface, insertions, spec, points)


def reference_virtual(surface, sizes, insertions, spec):
    return reference_localize(surface, insertions, spec, reference_virtual_points(surface, sizes, spec))


def pushforward_co(surface, sizes):
    trivial = bundle_by_label(surface, "O")
    return [CoFactor(m, sizes[m] + sizes[m + 1], trivial) for m in range(len(sizes) - 1)]


spec_parts = st.tuples(st.integers(SPEC_LOW, SPEC_HIGH), st.sampled_from((1, -1)))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    surface=st.sampled_from([p2(), p1xp1()]),
    sizes=st.sampled_from([(1, 1), (2, 1), (1, 1, 1)]),
    a=spec_parts,
    b=spec_parts,
)
def test_integer_kernel_matches_fraction_reference(data, surface, sizes, a, b):
    # |s1|, |s2| >= SPEC_LOW and coprime: no exponent of these sizes pairs to 0
    assume(math.gcd(a[0], b[0]) == 1)
    spec = WeightSpec(a[0] * a[1], b[0] * b[1])
    basis = insertion_basis(surface, sizes, sizes[0] + sizes[-1])
    # shuffled, with duplicates: trie prefixes out of order and shared leaves
    insertions = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=16))
    co = pushforward_co(surface, sizes)
    assert integrate_ambient_batch(surface, sizes, insertions, spec, co) == reference_ambient(
        surface, sizes, insertions, spec, co
    )
    assert integrate_virtual_batch(surface, sizes, insertions, spec) == reference_virtual(
        surface, sizes, insertions, spec
    )


def monomials_in_any_factor_order(surface, sizes):
    """A strategy of monomials of the basis of `sizes` with their factors
    permuted, each padded with up to two c_0 = 1 factors on any ambient
    factor: factor 2 may come before factor 1, and a padding factor may be
    the only one of its ambient factor."""
    basis = insertion_basis(surface, sizes, sizes[0] + sizes[-1])
    padding = st.builds(ChernFactor, st.integers(0, len(sizes) - 1),
                        st.sampled_from(surface.battery_bundles + (None,)), st.just(0))
    return st.tuples(st.sampled_from(basis), st.lists(padding, max_size=2)).flatmap(
        lambda drawn: st.permutations(drawn[0].factors + tuple(drawn[1])).map(
            lambda factors: Insertion(tuple(factors))))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    surface=st.sampled_from([p2(), p1xp1()]),
    sizes=st.sampled_from([(2, 1), (2, 2), (1, 1, 1)]),
)
def test_integer_kernel_matches_fraction_reference_in_any_factor_order(data, surface, sizes):
    """The kernel orders each monomial's factors by ambient factor and sums
    a node's vector over a later factor's classes only after its children
    of its own factor: monomials listed in any factor order, padded with
    c_0 = 1 factors, and monomials that read only the last factor, so
    that the root itself is summed, integrate as the Fraction loop does."""
    spec = data.draw(st.sampled_from(sample_specs(59, 3)))
    last = len(sizes) - 1
    basis = insertion_basis(surface, sizes, sizes[0] + sizes[-1])
    last_only = [ins for ins in basis if all(f.factor == last for f in ins.factors)]
    insertions = data.draw(st.lists(monomials_in_any_factor_order(surface, sizes), min_size=1,
                                    max_size=12))
    insertions += data.draw(st.lists(st.sampled_from(last_only), min_size=1, max_size=3))
    insertions = data.draw(st.permutations(insertions))
    co = pushforward_co(surface, sizes)
    assert integrate_ambient_batch(surface, sizes, insertions, spec, co) == reference_ambient(
        surface, sizes, insertions, spec, co
    )
    assert integrate_virtual_batch(surface, sizes, insertions, spec) == reference_virtual(
        surface, sizes, insertions, spec
    )


# -- the point-major trie walk the kernel replaced, kept as its oracle -------


def point_major_trie(insertions):
    """The kernel's plan of `insertions`: (series keys, orders, nodes,
    leaves), what `_localize` walks at each fixed point.

    A factor's Chern series is keyed by (ambient factor, bundle), None for
    the tangent bundle, and its key's place in the keys is its int slot;
    orders[slot] is the highest degree any insertion asks of it.  The
    insertions' factor tuples form a prefix trie, built once whatever their
    order: node k >= 1 is nodes[k - 1] = (parent node, series slot,
    degree), node 0 is the root, the empty product, and leaves[i] is the
    node of insertion i."""
    slots = {}
    orders = []
    nodes = []
    # the build's index of each node's children; the walk never reads it
    children = {}
    leaves = []
    for ins in insertions:
        node = 0
        for f in ins.factors:
            child = children.get((node, f))
            if child is None:
                key = (f.factor, f.bundle)
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = len(orders)
                    orders.append(0)
                orders[slot] = max(orders[slot], f.degree)
                child = children[node, f] = len(nodes) + 1
                nodes.append((node, slot, f.degree))
            node = child
        leaves.append(node)
    return tuple(slots), orders, nodes, leaves


def point_major_localize(surface, insertions, spec, measure):
    """The walk `integrals._localize` made before it contracted the
    ambient factors one by one, copied as it was: at each fixed point
    every series slot is expanded to its order, every trie node holds its
    parent's value times one coefficient, and every insertion adds its
    leaf's value to its total, all in `int`s over the lcm of the weights'
    denominators."""
    keys, orders, nodes, leaves = point_major_trie(tuple(insertions))
    common = math.lcm(*(weight.denominator for weight in measure.values()))
    totals = [0] * len(leaves)
    for steps, weight in measure.items():
        coeffs = []
        for (m, bundle), order in zip(keys, orders):
            if bundle is None:
                char = tangent_char(surface, steps[m])
            else:
                char = taut_char(surface, bundle, steps[m])
            coeffs.append(chern_series(char, spec, order))
        values = [weight.numerator * (common // weight.denominator)]
        for parent, slot, degree in nodes:
            values.append(values[parent] * coeffs[slot][degree])
        for i, leaf in enumerate(leaves):
            totals[i] += values[leaf]
    return [Fraction(total, common) for total in totals]


#: the ladder's p2 (4,2) and p1xp1 (3,3), and kstep's three factors
TRIE_ORACLE = [(p2(), (4, 2)), (p1xp1(), (3, 3)), (p2(), (2, 1, 1)), (p2(), (1, 1, 1))]


def trie_oracle_mismatches():
    """(surface, sizes, side) of each measure of TRIE_ORACLE, ambient and
    virtual at one spec, where `_localize` over every basis monomial
    differs from the point-major walk.  Each sum is given a fresh
    integrand, so the virtual side is summed, not copied from the ambient
    one."""
    spec = sample_specs(53, 1)[0]
    bad = []
    for surface, sizes in TRIE_ORACLE:
        degree = sizes[0] + sizes[-1]
        insertions = insertion_basis(surface, sizes, degree)
        measures = {
            "ambient": integrals.ambient_measure(surface, sizes, spec, pushforward_co(surface, sizes)),
            "virtual": integrals.virtual_measure(surface, sizes, spec),
        }
        for side, measure in measures.items():
            integrand = Integrand(insertions, len(sizes), degree)
            got = integrals._localize(surface, integrand, spec, measure)
            if got != point_major_localize(surface, insertions, spec, measure):
                bad.append((surface.name, sizes, side))
    return bad


def test_kernel_matches_the_point_major_trie_walk():
    assert trie_oracle_mismatches() == []


def test_integer_kernel_matches_reference_where_co_factor_vanishes():
    # c_2(co) vanishes at the non-nested pairs of S^[1] x S^[1]: those fixed
    # points drop out of the kernel's sum and add 0 to the reference's
    surface, sizes, co = p2(), (1, 1), pushforward_co(p2(), (1, 1))
    spec = sample_specs(41, 1)[0]
    points = list(product(multipartitions(surface, 1), repeat=2))
    values = [co_value(surface, mps, co, spec) for mps in points]
    assert 0 in values and any(values)
    h, h2 = ChernFactor(0, O1, 1), ChernFactor(0, O2, 1)
    # the basis reversed, then c1(O(1)@1)^2 = 1 and c1(O(1)@1)*c1(O(2)@1) = 2,
    # which the basis also holds
    insertions = insertion_basis(surface, sizes, 2)[::-1] + (Insertion((h, h)), Insertion((h, h2)))
    ambient = integrate_ambient_batch(surface, sizes, insertions, spec, co)
    assert ambient[-2:] == [1, 2]
    assert ambient == reference_ambient(surface, sizes, insertions, spec, co)
    assert ambient == integrate_virtual_batch(surface, sizes, insertions, spec)


POINTWISE = [(p2(), (2, 1)), (p2(), (3, 2)), (p2(), (1, 1, 1)), (p2(), (2, 1, 1)), (p1xp1(), (2, 2))]


@pytest.mark.parametrize(
    "surface,sizes", POINTWISE, ids=[f"{s.name}-{sizes}" for s, sizes in POINTWISE]
)
def test_ambient_measure_is_the_virtual_measure_point_by_point(monkeypatch, surface, sizes):
    """Thom-Porteous at the fixed points: the top co-class product vanishes
    off the nested chains, and on a chain co / e(T_1)...e(T_k) is exactly
    1 / e(T^vir).  This is why `_localize` may return the ambient totals
    for the virtual sum; the kernel's measures must match the oracle's,
    which reads each top class from a Chern series, while the kernel's
    ambient measure expands no series at all."""
    spec = sample_specs(1729, 1)[0]
    co = pushforward_co(surface, sizes)
    ambient = {steps: w for steps, w in reference_ambient_points(surface, sizes, spec, co) if w}
    virtual = reference_virtual_points(surface, sizes, spec)
    assert len(dict(virtual)) == len(virtual)
    assert ambient == dict(virtual)
    monkeypatch.setattr(integrals, "chern_series", None)
    assert integrals.ambient_measure(surface, sizes, spec, co) == ambient
    assert integrals.virtual_measure(surface, sizes, spec) == ambient


def measure_reuse_mismatches(monkeypatch):
    """The cases, by name, where one `Integrand` summed by `_localize` over
    p2 (2,1) chain measures in turn gives other totals than
    `reference_localize`, or sums where it should copy or copies where it
    should sum: a first measure, an equal one built apart in another order
    (copied), the same again after the caller changed the lists it was
    given (copied), then the first measure changed in place after its sum,
    and measures that differ from the one before in one weight or one
    point (each summed).  The sums are seen by the tautological
    characters they read."""
    surface, sizes = p2(), (2, 1)
    spec = sample_specs(43, 1)[0]
    integrand = Integrand(insertion_basis(surface, sizes, 3), 2, 3)
    points = reference_virtual_points(surface, sizes, spec)
    calls = []

    def counted(surface, bundle, mp):
        calls.append(mp)
        return taut_char(surface, bundle, mp)

    monkeypatch.setattr(integrals, "taut_char", counted)
    measure = dict(points)
    steps, weight = points[0]
    one_weight = {**measure, steps: weight * 2}
    one_point_less = {k: w for k, w in one_weight.items() if k != steps}
    failed = set()
    returned = []

    def run(case, measure, summed):
        calls.clear()
        got = integrals._localize(surface, integrand, spec, measure)
        if got != reference_localize(surface, integrand, spec, list(measure.items())):
            failed.add(case)
        if bool(calls) != summed:
            failed.add(case)
        returned.append(got)

    run("first measure", measure, True)
    run("equal measure built apart", dict(reversed(points)), False)
    # the caller owns the returned lists: changing them changes no later copy
    returned[0].clear()
    returned[1][0] += 1
    run("equal measure after the caller changed its lists", dict(points), False)
    measure[steps] = weight * 3
    run("first measure changed in place", measure, True)
    run("one weight differs", one_weight, True)
    run("one point less", one_point_less, True)
    return failed


def test_localize_sums_again_unless_the_measure_is_equal(monkeypatch):
    assert measure_reuse_mismatches(monkeypatch) == set()


def test_localize_over_an_empty_measure_is_zero(monkeypatch):
    surface, spec = p2(), sample_specs(43, 1)[0]
    insertions = insertion_basis(surface, (2, 1), 3)
    monkeypatch.setattr(integrals, "taut_char", None)
    monkeypatch.setattr(integrals, "tangent_char", None)
    totals = integrals._localize(surface, insertions, spec, {})
    assert totals == [0] * len(insertions)
    assert all(type(t) is Fraction for t in totals)


# -- the plan of an integrand, reused at every spec and on both sides --------


def one_factor_changed(insertions):
    """`insertions` with the first factor of the first monomial read from
    the tangent bundle, on the same ambient factor and of the same degree:
    as many monomials, every degree the same, and a series key that no
    basis monomial has."""
    first = insertions[0]
    f = first.factors[0]
    changed = Insertion((ChernFactor(f.factor, None, f.degree),) + first.factors[1:])
    return (changed,) + tuple(insertions[1:])


def plan_reuse_mismatches(surface, sizes, stride):
    """The cases, by name, where the kernel's sums at 3 specs, ambient then
    virtual at each, differ from `reference_localize`, run in turn: A
    (every `stride`-th basis monomial) as one `Integrand` twice, then as a
    plain tuple and as an equal list, each wrapped afresh by every sum;
    then B, an integrand as long as A that differs from it in one factor;
    then the integrands A, B and A again at each spec."""
    specs = sample_specs(47, 3)
    co = pushforward_co(surface, sizes)
    degree = sizes[0] + sizes[-1]
    a = insertion_basis(surface, sizes, degree)[::stride]
    b = one_factor_changed(a)
    points = {
        spec: {
            "ambient": [(k, w) for k, w in reference_ambient_points(surface, sizes, spec, co) if w],
            "virtual": reference_virtual_points(surface, sizes, spec),
        }
        for spec in specs
    }
    reference = {
        (name, spec, side): reference_localize(surface, ins, spec, points[spec][side])
        for name, ins in (("A", a), ("B", b))
        for spec in specs
        for side in ("ambient", "virtual")
    }
    # B's one factor shows in its values, so a plan of A read for B is seen
    assert any(reference["A", spec, "ambient"] != reference["B", spec, "ambient"] for spec in specs)
    integrand_a = Integrand(a, len(sizes), degree)
    integrand_b = Integrand(b, len(sizes), degree)
    runs = [
        ("one integrand", "A", integrand_a), ("one integrand", "A", integrand_a),
        ("plain tuple", "A", a), ("equal list", "A", list(a)),
        ("one factor differs", "B", integrand_b),
    ]
    order = [(case, spec, name, ins) for case, name, ins in runs for spec in specs]
    order += [("interleaved A, B, A", spec, name, ins)
              for spec in specs for name, ins in (("A", integrand_a), ("B", integrand_b),
                                                  ("A", integrand_a))]
    failed = set()
    for case, spec, name, ins in order:
        ambient = integrate_ambient_batch(surface, sizes, ins, spec, co)
        virtual = integrate_virtual_batch(surface, sizes, ins, spec)
        if (ambient, virtual) != (reference[name, spec, "ambient"], reference[name, spec, "virtual"]):
            failed.add(case)
    return failed


# p2 (3,2) at every 15th of its 915 monomials keeps the reference cheap;
# kstep (2,1,1) has three factors and all 249 of its monomials
PLAN_REUSE = [(p2(), (3, 2), 15), (p2(), (2, 1, 1), 1)]


@pytest.mark.parametrize(
    "surface,sizes,stride", PLAN_REUSE, ids=[f"{s.name}-{sizes}" for s, sizes, _ in PLAN_REUSE]
)
def test_plan_reused_at_every_spec_and_side_matches_reference(surface, sizes, stride):
    assert plan_reuse_mismatches(surface, sizes, stride) == set()


@pytest.mark.parametrize("integrate", ["ambient", "virtual"])
def test_bad_tuple_after_a_good_one_is_refused_before_any_measure(monkeypatch, integrate):
    """An `Integrand` checked for the sum's factor count and degree is not
    checked again.  Insertions it does not hold so, as a plain tuple or as
    an integrand checked for another factor count, are checked before a
    measure is built, though they are as many as the good ones: the bad
    monomial is named, and the good integrand is summed as before."""
    surface, sizes = p2(), (2, 1)
    spec = sample_specs(43, 1)[0]
    co = pushforward_co(surface, sizes)
    good = Integrand(insertion_basis(surface, sizes, 3), 2, 3)
    # monomial 2 reads a third ambient factor, which a sum over two lacks
    bad = good.monomials[:1] + (Insertion((ChernFactor(2, O1, 3),)),) + good.monomials[2:]
    wide = Integrand(bad, 3, 3)

    def run(insertions):
        if integrate == "ambient":
            return integrate_ambient_batch(surface, sizes, insertions, spec, co)
        return integrate_virtual_batch(surface, sizes, insertions, spec)

    expected = run(good)
    checks = []
    original = integrals._check_insertions
    monkeypatch.setattr(integrals, "_check_insertions",
                        lambda *args: checks.append(args[1:]) or original(*args))
    assert run(good) == expected and checks == []

    def unreachable(*args):
        raise AssertionError("a measure was built before the insertions were checked")

    measures = {name: getattr(integrals, name) for name in ("ambient_measure", "virtual_measure")}
    for name in measures:
        monkeypatch.setattr(integrals, name, unreachable)
    for insertions in (bad, wide):
        with pytest.raises(DegreeMismatchError, match="^factors count from 1 .* in monomial 2$"):
            run(insertions)
    assert checks == [(2, 3), (2, 3)]
    for name, measure in measures.items():
        monkeypatch.setattr(integrals, name, measure)
    assert run(good) == expected


PLAN_BUILDS = [
    ({"kind": "pushforward", "surface": "p2", "n": [3, 2], "samples": 3}, 1, 1),
    ({"kind": "kstep", "surface": "p2", "n": [2, 1, 1]}, 1, 1),
    ({"kind": "twisted-vanish", "surface": "p2", "n": [2, 1]}, 2, 0),
]


@pytest.mark.parametrize("entry,checks,builds", PLAN_BUILDS,
                         ids=[e["kind"] for e, _, _ in PLAN_BUILDS])
def test_a_scenario_checks_its_insertions_once_and_builds_its_trie_at_most_once(
    monkeypatch, entry, checks, builds
):
    """`pushforward` and `kstep` sum one integrand at each spec on both
    sides: one check and one trie.  `twisted-vanish` builds one integrand
    per group, one for each of p2's two twists, so each is checked once;
    every measure of it is empty, so no trie is built."""
    calls = {"_check_insertions": 0, "_trie": 0}
    for name in calls:
        original = getattr(integrals, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(integrals, name, counted)
    assert run_scenario(scenario_from_entry(entry))["verdict"] == "pass"
    assert calls == {"_check_insertions": checks, "_trie": builds}


def test_a_pushforward_folds_each_tautological_character_once(monkeypatch):
    """`_localize` reads the tautological character of every (bundle, fixed
    point) of its measure at each spec, and `taut_char` keeps them: a
    pushforward at 3 specs folds each once.  Its folds are the kernel calls
    with an empty first shape; no co-class or tangent fold of p2 (3,2) has
    one."""
    folds = []
    original = vertex._ext_kernel

    def counted(surface, shape1, shape2, weights, rank):
        if not any(shape1):
            folds.append((weights, shape2))
        return original(surface, shape1, shape2, weights, rank)

    monkeypatch.setattr(vertex, "_ext_kernel", counted)
    vertex.taut_char.cache_clear()
    scenario = scenario_from_entry({"kind": "pushforward", "surface": "p2", "n": [3, 2]})
    assert len(scenario.weight_specs) == 3
    assert run_scenario(scenario)["verdict"] == "pass"
    assert folds
    assert len(folds) == len(set(folds))


def live_integrands(before=()):
    """The `Integrand`s alive after a full collection, but for `before`,
    a list of their ids."""
    gc.collect()
    return [obj for obj in gc.get_objects()
            if isinstance(obj, Integrand) and id(obj) not in before]


@pytest.mark.parametrize(
    "entry",
    [{"kind": "pushforward", "surface": "p2", "n": [2, 1]},
     {"kind": "kstep", "surface": "p2", "n": [1, 1, 1]},
     {"kind": "euler-count", "surface": "p1xp1", "n": [2]}],
    ids=["pushforward", "kstep", "euler-count"],
)
def test_run_scenario_releases_the_integrand_plan(monkeypatch, entry):
    """A scenario's plans, their tries and last measures, are not held
    while its report is written or the next scenario runs: no `Integrand`
    the run summed is alive once it returns."""
    before = {id(obj) for obj in live_integrands()}
    summed = []
    original = integrals._localize

    def counted(surface, integrand, spec, measure):
        summed.append(type(integrand))
        return original(surface, integrand, spec, measure)

    monkeypatch.setattr(integrals, "_localize", counted)
    report = run_scenario(scenario_from_entry(entry))
    assert report["verdict"] == "pass"
    assert summed and set(summed) == {Integrand}
    assert live_integrands(before) == []


# six twists per surface, among them negative and mixed degrees
RANK_TWISTS = {
    "p2": [(0,), (1,), (2,), (-1,), (-3,), (5,)],
    "p1xp1": [(0, 0), (1, 0), (0, 1), (-2, -2), (3, -1), (-1, 2)],
}


@pytest.mark.parametrize("surface", [p2(), p1xp1()], ids=lambda s: s.name)
def test_co_class_is_honest_of_rank_n1_plus_n2(surface):
    """The certificate `ambient_measure` uses in place of a series: at every
    pair of fixed points with n1, n2 <= 3 the co-class has no negative
    multiplicity and rank n1 + n2, so its series stops at that degree."""
    spec = WeightSpec(1013, 2027)
    mps = [mp for n in range(4) for mp in multipartitions(surface, n)]
    for degrees in RANK_TWISTS[surface.name]:
        bundle = line_bundle(surface, *degrees)
        for mp1, mp2 in product(mps, repeat=2):
            char = co_class(surface, mp1, mp2, bundle)
            assert all(mult > 0 for _, mult in char.terms()), (degrees, mp1, mp2)
            rank = mp1.total + mp2.total
            assert char.rank_eval() == rank
            assert chern_series(char, spec, rank + 3)[rank + 1:] == (0, 0, 0)


def co_class_series_calls(monkeypatch, co_class_fn, scenario):
    """(report, co-class characters, the chern_series calls on them) of one
    scenario run with `integrals.co_class` replaced by `co_class_fn`."""
    made, expanded = [], []

    def recorded(*args):
        made.append(co_class_fn(*args))
        return made[-1]

    def counted(char, spec, order):
        if any(char is co for co in made):
            expanded.append(char)
        return chern_series(char, spec, order)

    monkeypatch.setattr(integrals, "co_class", recorded)
    monkeypatch.setattr(integrals, "chern_series", counted)
    return run_scenario(scenario), made, expanded


def test_above_rank_co_class_factor_is_zero_without_a_series(monkeypatch):
    scenario = scenario_from_entry({"kind": "vanish", "n": [2, 1], "i": [1]})
    report, made, expanded = co_class_series_calls(monkeypatch, co_class, scenario)
    assert report["verdict"] == "pass"
    assert len(made) == 9 * 3 * 3  # every point pair, at each of three specs
    assert expanded == []


@pytest.mark.parametrize("kind,sizes", [("pushforward", [2, 1]), ("kstep", [1, 1, 1])])
def test_co_class_factor_at_its_rank_is_a_weight_product_without_a_series(monkeypatch, kind,
                                                                            sizes):
    scenario = scenario_from_entry({"kind": kind, "n": sizes})
    report, made, expanded = co_class_series_calls(monkeypatch, co_class, scenario)
    assert report["verdict"] == "pass"
    assert made and expanded == []


def test_below_rank_co_class_factor_is_refused_before_any_sum(monkeypatch):
    def unreachable(*args):
        raise AssertionError("read a character")

    for name in ("co_class", "tangent_char", "euler_class"):
        monkeypatch.setattr(integrals, name, unreachable)
    with pytest.raises(DegreeMismatchError, match="below its rank"):
        integrals.ambient_measure(p2(), (2, 1), WeightSpec(1013, 2027), [CoFactor(0, 2, O)])


def test_dishonest_co_class_is_refused_by_name(monkeypatch):
    """A co-class whose first term has its multiplicity negated would have
    Chern classes above the rank n1 + n2.  Both kinds that read co-classes
    fail, each failing case naming the first point pair, and no series is
    expanded."""

    def dishonest(surface, mp1, mp2, bundle):
        char = co_class(surface, mp1, mp2, bundle)
        (exp, mult), *_ = char.terms()
        return char - lp({exp: 2 * mult})

    first = tuple(multipartitions(p2(), n)[0].to_text() for n in (2, 1))
    for entry, degree in (({"kind": "vanish", "n": [2, 1], "i": [1]}, 4),
                          ({"kind": "pushforward", "n": [2, 1]}, 3)):
        scenario = scenario_from_entry(entry)
        report, made, expanded = co_class_series_calls(monkeypatch, dishonest, scenario)
        assert report["verdict"] == "fail" and made and expanded == []
        diagnostics = {c["diagnostic"] for c in report["cases"] if c["verdict"] == "fail"}
        assert diagnostics == {
            f"DishonestClass: co-class factor c{degree}(CO[O]@12) at ({first[0]}, {first[1]}) "
            "has a negative multiplicity"
        }
