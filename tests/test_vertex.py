import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestloc import vertex
from nestloc.characters import LaurentPoly
from nestloc.combinatorics import (
    MultiPartition,
    NestedChain,
    Partition,
    box_character,
    mp_contains,
    multipartitions,
    nested_chains,
    partitions_of,
)
from nestloc.harness import arm_leg_vertex
from nestloc.toric import bundle_by_label, line_bundle, p1xp1, p2
from nestloc.vertex import (
    _fold,
    _pair_term,
    co_class,
    ext_class,
    tangent_char,
    taut_char,
    vertex_V,
    virtual_tangent_char,
)
from test_guards import REPORT_DIGESTS, SIZE_FLAGS, stable_report_digest


def lp(terms):
    return LaurentPoly(terms)


def arm_leg_oracle(lam: Partition) -> LaurentPoly:
    """Independent hook formula for the Hilbert-scheme tangent character.

    Convention selected by brute-force match against the diagonal vertex on
    |lambda| <= 2: box (i, j) contributes u1^(-leg-1) u2^arm and
    u1^leg u2^(-arm-1).
    """
    conj = lam.conjugate().parts
    terms = []
    for i, row in enumerate(lam.parts):
        for j in range(row):
            arm = row - j - 1
            leg = conj[j] - i - 1
            terms.append(((-leg - 1, arm), 1))
            terms.append(((leg, -arm - 1), 1))
    return LaurentPoly(terms)


def all_partitions_up_to(n):
    for k in range(n + 1):
        yield from partitions_of(k)


def test_vertex_examples():
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    assert vertex_V(zero, zero) == zero
    assert vertex_V(zero, one) == one
    assert vertex_V(one, zero) == lp({(-1, -1): 1})
    assert vertex_V(one, one) == lp({(-1, 0): 1, (0, -1): 1})


def test_serre_duality_exhaustive_small():
    u1u2 = LaurentPoly.monomial(1, 1)
    for lam in all_partitions_up_to(4):
        for mu in all_partitions_up_to(4):
            q1, q2 = box_character(lam), box_character(mu)
            assert vertex_V(q1, q2).bar() == u1u2 * vertex_V(q2, q1)


def test_rank_law_exhaustive_small():
    for lam in all_partitions_up_to(4):
        for mu in all_partitions_up_to(4):
            v = vertex_V(box_character(lam), box_character(mu))
            assert v.rank_eval() == lam.size + mu.size


def test_arm_leg_convention_selected_by_brute_force():
    """The other plausible hook convention fails already on |lambda| = 2."""

    def transposed_oracle(lam):
        conj = lam.conjugate().parts
        terms = []
        for i, row in enumerate(lam.parts):
            for j in range(row):
                arm = row - j - 1
                leg = conj[j] - i - 1
                terms.append(((-arm - 1, leg), 1))
                terms.append(((arm, -leg - 1), 1))
        return LaurentPoly(terms)

    mismatch = 0
    for lam in all_partitions_up_to(2):
        q = box_character(lam)
        assert vertex_V(q, q) == arm_leg_oracle(lam)
        if vertex_V(q, q) != transposed_oracle(lam):
            mismatch += 1
    assert mismatch > 0


def test_diagonal_vertex_matches_arm_leg_oracle():
    for lam in all_partitions_up_to(5):
        q = box_character(lam)
        assert vertex_V(q, q) == arm_leg_oracle(lam)


def test_tangent_char_single_box():
    surface = p2()
    mp = MultiPartition((Partition((1,)), Partition(()), Partition(())))
    got = tangent_char(surface, mp)
    # pinned convention: u_k -> t^{-w_k}, so the single box at p0 gives the
    # honest tangent weights t^{w1} + t^{w2}
    assert got == lp({(1, 0): 1, (0, 1): 1})
    assert got.rank_eval() == 2


def test_tangent_char_empty():
    surface = p2()
    mp = MultiPartition((Partition(()),) * 3)
    assert tangent_char(surface, mp) == LaurentPoly.zero()


@pytest.mark.parametrize("surface", [p2(), p1xp1()])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tangent_rank_and_no_zero_weights(surface, n):
    for mp in multipartitions(surface, n):
        t = tangent_char(surface, mp)
        assert t.rank_eval() == 2 * n
        assert t.coefficient((0, 0)) == 0


def test_co_class_empty_pair_is_zero():
    surface = p2()
    empty = MultiPartition((Partition(()),) * 3)
    trivial = bundle_by_label(surface, "O")
    assert co_class(surface, empty, empty, trivial) == LaurentPoly.zero()


def test_co_class_single_box_example():
    surface = p2()
    mp1 = MultiPartition((Partition((1,)), Partition(()), Partition(())))
    empty = MultiPartition((Partition(()),) * 3)
    trivial = bundle_by_label(surface, "O")
    # vertex_V(1, 0) = (u1 u2)^{-1}, substituted at chart p0
    w1, w2 = surface.charts[0]
    expected = lp({(w1[0] + w2[0], w1[1] + w2[1]): 1})
    assert co_class(surface, mp1, empty, trivial) == expected


@pytest.mark.parametrize("d", [0, 1, 2])
def test_co_class_rank_independent_of_twist(d):
    surface = p2()
    bundle = line_bundle(surface, d)
    for mp1 in multipartitions(surface, 2):
        for mp2 in multipartitions(surface, 1):
            assert co_class(surface, mp1, mp2, bundle).rank_eval() == 3


def test_diagonal_co_class_is_tangent():
    surface = p2()
    trivial = bundle_by_label(surface, "O")
    for n in (1, 2, 3):
        for mp in multipartitions(surface, n):
            assert co_class(surface, mp, mp, trivial) == tangent_char(surface, mp)


@pytest.mark.parametrize("surface", [p2(), p1xp1()])
def test_nested_effectivity_and_zero_weight_detection(surface):
    trivial = bundle_by_label(surface, "O")
    top = 4 if surface.name == "p2" else 3
    for n1 in range(1, top + 1):
        for n2 in range(n1 + 1):
            for mp1 in multipartitions(surface, n1):
                for mp2 in multipartitions(surface, n2):
                    value = co_class(surface, mp1, mp2, trivial)
                    zero = value.coefficient((0, 0))
                    if mp_contains(mp1, mp2):
                        assert zero == 0
                        assert all(c >= 0 for _, c in value.terms())
                    else:
                        assert zero >= 1


def test_taut_char_examples():
    surface = p2()
    mp = MultiPartition((Partition((1,)), Partition(()), Partition(())))
    trivial = bundle_by_label(surface, "O")
    assert taut_char(surface, trivial, mp) == LaurentPoly.one()
    o1 = line_bundle(surface, 1)
    assert taut_char(surface, o1, mp) == lp({o1.weights[0]: 1})


@pytest.mark.parametrize("surface", [p2(), p1xp1()])
def test_taut_char_effective_with_rank_n(surface):
    bundle = line_bundle(surface, *((1,) if surface.name == "p2" else (1, 0)))
    for n in (1, 2, 3):
        for mp in multipartitions(surface, n):
            t = taut_char(surface, bundle, mp)
            assert t.rank_eval() == n
            assert all(c > 0 for _, c in t.terms())


def test_virtual_tangent_diagonal_chain_is_tangent():
    surface = p2()
    for mp in multipartitions(surface, 2):
        chain = NestedChain((mp, mp))
        v = virtual_tangent_char(surface, chain)
        assert v == tangent_char(surface, mp)
        assert v.rank_eval() == 4


def test_virtual_tangent_rank_is_n1_plus_nk():
    surface = p2()
    for sizes in ((2, 1), (3, 2), (2, 1, 1)):
        for chain in nested_chains(surface, sizes):
            assert virtual_tangent_char(surface, chain).rank_eval() == sizes[0] + sizes[-1]


def test_virtual_tangent_box_over_empty():
    surface = p2()
    box = MultiPartition((Partition((1,)), Partition(()), Partition(())))
    empty = MultiPartition((Partition(()),) * 3)
    chain = NestedChain((box, empty))
    v = virtual_tangent_char(surface, chain)
    assert v.rank_eval() == 1
    # tangent(box) - co_class(box, empty): t^{w1} + t^{w2} - t^{w1+w2}
    assert v == lp({(1, 0): 1, (0, 1): 1, (1, 1): -1})


def test_global_character_validates_rank(monkeypatch):
    """A chart term with one weight-zero summand too many folds to rank
    |lams1| + |lams2| + 1; every global character refuses it, naming both
    ranks.  So does the virtual tangent character for a co-class of rank
    |mp1| + |mp2| + 1."""
    original = vertex._pair_term

    def one_too_many(chart, mu, lam1, lam2):
        return original(chart, mu, lam1, lam2) + (((0, 0), 1),)

    surface = p2()
    box = MultiPartition((Partition((1,)), Partition(()), Partition(())))
    trivial = bundle_by_label(surface, "O")
    monkeypatch.setattr(vertex, "_pair_term", one_too_many)
    for build, rank in (
        (lambda: vertex.ext_class(surface, box, box, trivial), 2),
        (lambda: vertex.tangent_char.__wrapped__(surface, box), 2),
        (lambda: vertex.taut_char.__wrapped__(surface, trivial, box), 1),
    ):
        with pytest.raises(ValueError, match=f"folded rank {rank + 3} is not .* = {rank}$"):
            build()
    # the virtual tangent character keeps its own n_1 + n_k check
    monkeypatch.setattr(vertex, "_pair_term", original)
    co_class = vertex.co_class
    monkeypatch.setattr(vertex, "co_class", lambda *args: co_class(*args) + LaurentPoly.one())
    empty = MultiPartition((Partition(()),) * 3)
    with pytest.raises(ValueError, match="virtual rank 0 is not n_1 \\+ n_k = 1$"):
        vertex.virtual_tangent_char.__wrapped__(surface, NestedChain((box, empty)))


@pytest.mark.parametrize("surface,other", [(p2(), p1xp1()), (p1xp1(), p2())], ids=["p2", "p1xp1"])
def test_global_character_refuses_data_of_another_surface(surface, other):
    mp = next(iter(multipartitions(surface, 1)))
    alien = next(iter(multipartitions(other, 1)))
    bundle, alien_bundle = bundle_by_label(surface, "O"), bundle_by_label(other, "O")
    for build in (
        lambda: co_class(surface, mp, alien, bundle),
        lambda: co_class(surface, alien, mp, bundle),
        lambda: co_class(surface, mp, mp, alien_bundle),
        lambda: tangent_char(surface, alien),
        lambda: taut_char(surface, bundle, alien),
        lambda: taut_char(surface, alien_bundle, mp),
    ):
        with pytest.raises(ValueError, match=f"not indexed by the fixed points of {surface.name}"):
            build()


@given(st.integers(0, 3), st.integers(0, 3))
def test_vertex_rank_property(n1, n2):
    for lam in partitions_of(n1):
        for mu in partitions_of(n2):
            assert vertex_V(box_character(lam), box_character(mu)).rank_eval() == n1 + n2


def test_vertex_matches_off_diagonal_arm_leg_oracle():
    """The arm/leg form has one term of multiplicity +1 per box, so every
    chart term, and every co-class `integrals.ambient_measure` reads, is
    honest of rank |lam1| + |lam2|."""
    pairs = [(lam1, lam2) for lam1 in all_partitions_up_to(5) for lam2 in all_partitions_up_to(5)]
    assert len(pairs) == 361
    for lam1, lam2 in pairs:
        v = vertex_V(box_character(lam1), box_character(lam2))
        assert v == arm_leg_vertex(lam1, lam2)
        assert v.is_effective() and v.rank_eval() == lam1.size + lam2.size


# Reference assembly of the global characters by LaurentPoly arithmetic, one
# chart at a time: u_k -> t^{-w_k}, then the twist t^mu.
def _reference_chart(local, chart, mu=(0, 0)):
    (w1, w2) = chart
    return LaurentPoly.monomial(*mu) * local.substitute((-w1[0], -w1[1]), (-w2[0], -w2[1]))


def reference_co_class(surface, mp1, mp2, bundle):
    total = LaurentPoly.zero()
    for chart, lam1, lam2, mu in zip(surface.charts, mp1.parts, mp2.parts, bundle.weights):
        total = total + _reference_chart(vertex_V(box_character(lam1), box_character(lam2)), chart, mu)
    return total


def reference_tangent_char(surface, mp):
    total = LaurentPoly.zero()
    for chart, lam in zip(surface.charts, mp.parts):
        q = box_character(lam)
        total = total + _reference_chart(vertex_V(q, q), chart)
    return total


def reference_taut_char(surface, bundle, mp):
    total = LaurentPoly.zero()
    for chart, lam, mu in zip(surface.charts, mp.parts, bundle.weights):
        total = total + _reference_chart(box_character(lam), chart, mu)
    return total


@pytest.mark.parametrize("surface", [p2(), p1xp1()], ids=lambda s: s.name)
def test_folded_characters_match_reference_assembly(surface):
    labels = dict.fromkeys(("O",) + surface.battery + surface.twists)
    bundles = [bundle_by_label(surface, label) for label in labels]
    mps = [mp for n in range(4) for mp in multipartitions(surface, n)]
    for mp in mps:
        t = tangent_char(surface, mp)
        assert t == reference_tangent_char(surface, mp)
        assert t.rank_eval() == 2 * mp.total
        for bundle in bundles:
            t = taut_char(surface, bundle, mp)
            assert t == reference_taut_char(surface, bundle, mp)
            assert t.rank_eval() == mp.total
    for bundle in bundles:
        for mp1 in mps:
            for mp2 in mps:
                c = co_class(surface, mp1, mp2, bundle)
                assert c == reference_co_class(surface, mp1, mp2, bundle)
                assert c.rank_eval() == mp1.total + mp2.total
                assert ext_class(surface, mp1, mp2, bundle) == c


@pytest.mark.parametrize("surface", [p2(), p1xp1()], ids=lambda s: s.name)
def test_co_class_miss_reads_one_pair_term_per_chart(surface):
    """A co-class miss is one `_pair_term` lookup per chart, and the tangent
    and tautological characters read the same kernel: T(mp) is the
    untwisted co-class of (mp, mp), and L^[n] at mp the co-class of
    (empty, mp) twisted by L."""
    trivial = bundle_by_label(surface, "O")
    twist = bundle_by_label(surface, surface.twists[0])
    mps = [mp for n in range(4) for mp in multipartitions(surface, n)]
    empty = mps[0]
    for mp in mps:
        assert tangent_char(surface, mp) == co_class(surface, mp, mp, trivial)
        assert taut_char(surface, twist, mp) == co_class(surface, empty, mp, twist)
    mp1, mp2 = mps[-1], mps[len(mps) // 2]
    co_class(surface, mp1, mp2, twist)
    co_class.cache_clear()
    before = _pair_term.cache_info()
    co_class(surface, mp1, mp2, twist)
    after = _pair_term.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (surface.euler_number, 0)


def test_serre_duality_suite_folds_each_pair_past_the_co_class_cache():
    """The serre-duality suite reads each of its pairs once, so it reads the
    uncached fold `ext_class`: after it the co-class cache holds nothing,
    and its report is the pinned one.  A sum re-reads a pair once per spec
    and per group, so pushforward still scores co-class cache hits."""
    for value in list(vars(vertex).values()):
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    digest = stable_report_digest(["serre-duality", "--surface", "p1xp1"])
    assert digest == REPORT_DIGESTS[("serre-duality", "p1xp1")]
    assert co_class.cache_info().currsize == 0
    digest = stable_report_digest(["pushforward", *SIZE_FLAGS["pushforward"], "--surface", "p2"])
    assert digest == REPORT_DIGESTS[("pushforward", "p2")]
    assert co_class.cache_info().hits > 0


@st.composite
def _pairs_and_bundles(draw):
    """A surface, two of its fixed points of size up to 5 and one of its
    battery or twist bundles."""
    surface = draw(st.sampled_from([p2(), p1xp1()]))
    mp1, mp2 = (
        draw(st.integers(0, 5).flatmap(lambda n: st.sampled_from(multipartitions(surface, n))))
        for _ in range(2)
    )
    label = draw(st.sampled_from(sorted(set(surface.battery + surface.twists))))
    return surface, mp1, mp2, bundle_by_label(surface, label)


@settings(max_examples=200, deadline=None)
@given(_pairs_and_bundles())
def test_kernel_matches_reference_assembly_property(case):
    """Each character, built by the kernel past its cache, equals the
    LaurentPoly assembly chart by chart."""
    surface, mp1, mp2, bundle = case
    assert co_class.__wrapped__(surface, mp1, mp2, bundle) == reference_co_class(
        surface, mp1, mp2, bundle
    )
    assert tangent_char.__wrapped__(surface, mp1) == reference_tangent_char(surface, mp1)
    assert taut_char(surface, bundle, mp2) == reference_taut_char(surface, bundle, mp2)


def test_pair_term_keys_hold_ints_and_tuples_only(monkeypatch):
    """`_pair_term` is keyed on (chart, mu, parts1, parts2) in ints, so its
    key hashes in C; no record (Partition, MultiPartition, bundle) is in it."""
    keys = []
    original = vertex._pair_term

    def recording(*key):
        keys.append(key)
        return original(*key)

    def ints_and_tuples(value):
        return type(value) is int or (type(value) is tuple and all(map(ints_and_tuples, value)))

    monkeypatch.setattr(vertex, "_pair_term", recording)
    lookups = 0
    for surface in (p2(), p1xp1()):
        twist = bundle_by_label(surface, surface.twists[0])
        mps = [mp for n in range(4) for mp in multipartitions(surface, n)]
        for mp in mps:
            vertex.co_class.__wrapped__(surface, mps[-1], mp, twist)
            vertex.tangent_char.__wrapped__(surface, mp)
            vertex.taut_char.__wrapped__(surface, twist, mp)
        lookups += 3 * len(mps) * surface.euler_number
    assert len(keys) == lookups
    assert [key for key in keys if not ints_and_tuples(key)] == []


_signed_locals = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3), max_size=5
).map(LaurentPoly)
_weights = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_SURFACE_CHARTS = p2().charts + p1xp1().charts


@given(st.lists(st.tuples(st.sampled_from(_SURFACE_CHARTS), _weights, _signed_locals), max_size=6))
# two charts whose terms cancel exactly, so the fold deletes their key
@example([(_SURFACE_CHARTS[0], (0, 0), LaurentPoly.one()),
          (_SURFACE_CHARTS[1], (0, 0), LaurentPoly({(0, 0): -1}))])
# one local character at one chart under two twists
@example([(_SURFACE_CHARTS[0], (0, 0), LaurentPoly.one()),
          (_SURFACE_CHARTS[0], (1, 0), LaurentPoly.one())])
def test_fold_of_chart_terms_matches_laurent_arithmetic(pieces):
    expected = LaurentPoly.zero()
    for chart, mu, local in pieces:
        expected = expected + _reference_chart(local, chart, mu)
    got = _fold(_reference_chart(local, chart, mu).terms() for chart, mu, local in pieces)
    # dict equality: a zero coefficient left in the fold would also fail it
    assert got == expected
