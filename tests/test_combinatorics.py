import hashlib
import json
import pickle
from dataclasses import dataclass, fields, make_dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestloc.characters import LaurentPoly
from nestloc.combinatorics import (
    MultiPartition,
    NestedChain,
    Partition,
    box_character,
    contains,
    euler_product_coefficient,
    mp_contains,
    multipartitions,
    nested_chains,
    partitions_of,
    subpartitions,
)
from nestloc.chern import FormalRing, generic_bundle
from nestloc.harness import (
    BATTERY,
    SCENARIO_KINDS,
    Scenario,
    scenario_from_entry,
)
from nestloc.integrals import (
    ChernFactor,
    CoFactor,
    Insertion,
    WeightSpec,
    insertion_basis,
    sample_specs,
)
from nestloc.toric import line_bundle, p1xp1, p2


partition_sizes = st.integers(0, 8)


def partitions_strategy(max_size=8):
    return partition_sizes.flatmap(
        lambda n: st.sampled_from(list(partitions_of(n)))
    )


def test_partitions_of_small_counts():
    assert partitions_of(0) == (Partition(()),)
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(8)) == 22


def test_partitions_of_reverse_lex_order():
    got = [p.parts for p in partitions_of(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_text_round_trip():
    assert Partition((3, 1, 1)).to_text() == "[3,1,1]"


def test_contains_examples():
    assert contains(Partition((2, 1)), Partition((1, 1)))
    assert not contains(Partition((2, 1)), Partition((3,)))


@given(partitions_strategy())
def test_contains_reflexive(lam):
    assert contains(lam, lam)


@given(partitions_strategy(), partitions_strategy())
def test_contains_antisymmetric(lam, mu):
    if contains(lam, mu) and contains(mu, lam):
        assert lam == mu


@given(partitions_strategy(), partitions_strategy(), partitions_strategy())
def test_contains_transitive(lam, mu, nu):
    if contains(lam, mu) and contains(mu, nu):
        assert contains(lam, nu)


def test_box_character_examples():
    assert box_character(Partition(())) == LaurentPoly.zero()
    assert box_character(Partition((2, 1))) == LaurentPoly(
        {(0, 0): 1, (0, 1): 1, (1, 0): 1}
    )


@given(partitions_strategy())
def test_box_character_rank(lam):
    q = box_character(lam)
    assert q.rank_eval() == lam.size
    assert all(c == 1 for _, c in q.terms())
    assert all(a >= 0 and b >= 0 for (a, b), _ in q.terms())


def test_multipartition_counts():
    assert len(multipartitions(p2(), 2)) == 9
    assert len(multipartitions(p1xp1(), 2)) == 14
    assert len(multipartitions(p2(), 3)) == 22


@pytest.mark.parametrize("surface", [p2(), p1xp1()])
@pytest.mark.parametrize("n", range(9))
def test_multipartition_counts_against_euler_product(surface, n):
    assert len(multipartitions(surface, n)) == euler_product_coefficient(
        surface.euler_number, n
    )


def test_multipartitions_deterministic_and_complete():
    mps = multipartitions(p2(), 2)
    assert len(set(mps)) == len(mps)
    assert all(mp.total == 2 for mp in mps)
    assert mps == multipartitions(p2(), 2)


def test_nested_chain_counts():
    diagonal = nested_chains(p2(), (1, 1))
    assert len(diagonal) == 3
    assert all(ch.steps[0] == ch.steps[1] for ch in diagonal)
    assert len(nested_chains(p2(), (2, 1))) == 12


@pytest.mark.parametrize("surface", [p2(), p1xp1()])
@pytest.mark.parametrize("n", range(6))
def test_nested_chain_counts_against_cheah_product(surface, n):
    # Cheah (1998): S^[n+1,n] has as many fixed points as the q^n
    # coefficient of e(S)/(1-q) * prod_k (1-q^k)^(-e(S))
    e = surface.euler_number
    expected = e * sum(euler_product_coefficient(e, j) for j in range(n + 1))
    assert len(nested_chains(surface, (n + 1, n))) == expected


def test_nested_chains_rejects_bad_sizes():
    with pytest.raises(ValueError):
        nested_chains(p2(), (1, 2))


@pytest.mark.parametrize("sizes", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 1, 1)])
def test_nested_chains_match_filtered_product(sizes):
    surface = p2()
    chains = nested_chains(surface, sizes)
    # brute-force oracle: filter the full product for pointwise containment
    def rec(prefix, level):
        if level == len(sizes):
            yield prefix
            return
        for mp in multipartitions(surface, sizes[level]):
            if not prefix or mp_contains(prefix[-1], mp):
                yield from rec(prefix + (mp,), level + 1)

    expected = {tuple(t) for t in rec((), 0)}
    assert {ch.steps for ch in chains} == expected
    assert len(chains) == len(expected)


@given(partitions_strategy(max_size=6), st.integers(0, 6))
def test_subpartitions_are_exactly_contained_partitions(lam, m):
    got = subpartitions(lam, m)
    expected = [mu for mu in partitions_of(m) if contains(lam, mu)]
    assert sorted(p.parts for p in got) == sorted(p.parts for p in expected)


def test_multipartition_serialization():
    mp = MultiPartition((Partition((2, 1)), Partition(()), Partition((1,))))
    assert mp.to_text() == "[[2,1],[],[1]]"



@dataclass(frozen=True, order=True)
class PlainPartition:
    """Partition's fields and comparisons without the cached size and hash."""

    parts: tuple[int, ...]


@dataclass(frozen=True)
class PlainMultiPartition:
    parts: tuple[PlainPartition, ...]


@dataclass(frozen=True)
class PlainChain:
    steps: tuple[PlainMultiPartition, ...]


#: named as the class it stands for, so that the reprs compare
PlainInsertion = make_dataclass("Insertion", ["factors"], frozen=True)


#: the reference frozen dataclass of each record whose fields are plain
#: data, its fields named here and not read from the class under test
REFERENCE = {
    cls: make_dataclass(cls.__name__, names, frozen=True)
    for cls, names in (
        (WeightSpec, ["s1", "s2"]),
        (ChernFactor, ["factor", "bundle", "degree"]),
        (CoFactor, ["left", "degree", "bundle"]),
        (Scenario, ["kind", "surface", "sizes", "i_values", "bundles", "samples", "seed",
                    "truncation", "insertions", "specs"]),
    )
}


def plain(value):
    """The reference frozen dataclass value of a record."""
    if isinstance(value, Partition):
        return PlainPartition(value.parts)
    if isinstance(value, MultiPartition):
        return PlainMultiPartition(tuple(map(plain, value.parts)))
    if isinstance(value, NestedChain):
        return PlainChain(tuple(map(plain, value.steps)))
    if isinstance(value, Insertion):
        return PlainInsertion(tuple(map(plain, value.factors)))
    reference = REFERENCE[type(value)]
    return reference(*(getattr(value, field.name) for field in fields(reference)))


def record_groups():
    """Enumerated records, one list per class."""
    chains = [ch for sizes in [(2, 1), (3, 2), (2, 1, 1)] for ch in nested_chains(p2(), sizes)]
    chains += [ch for sizes in [(2, 1), (2, 2)] for ch in nested_chains(p1xp1(), sizes)]
    insertions = list(insertion_basis(p2(), (2, 1), 3)) + list(insertion_basis(p1xp1(), (1, 1), 2))
    insertions += [Insertion(), Insertion((ChernFactor(0, None, 4),))]
    entries = [
        {"kind": "pushforward", "surface": "p1xp1", "n": [2, 1], "seed": 7},
        {"kind": "vanish", "n": [2, 1], "i": [1, 2], "specs": ["2,3", "1/2,5"]},
        {"kind": "twisted-vanish", "n": [1, 1], "bundles": ["O(1)"], "insertions": "file:x"},
        {"kind": "symbolic-tp", "truncation": 12, "samples": 5},
    ]
    return {
        "factor": sorted({f for ins in insertions for f in ins.factors}, key=repr),
        "insertion": insertions,
        "co-factor": [CoFactor(0, d, line_bundle(p2(), b)) for d in range(4) for b in (0, 1)]
        + [CoFactor(1, 2, line_bundle(p2(), 0))],
        "spec": list(sample_specs(1729, 4))
        + [WeightSpec(2, 3), WeightSpec(3, 2), WeightSpec(2, 3)],
        "chain": chains,
        "scenario": [scenario_from_entry(e) for e in BATTERY + entries],
    }


def test_cached_sizes_and_hashes_match_recomputed_values(tmp_path, monkeypatch):
    """size/total, shape and the hash are computed once at construction; every
    observable value must equal one recomputed from `parts` by a plain
    frozen dataclass, so every cache key is unchanged.  The other records
    (chains, factors, insertions, specs, scenarios) are checked against
    reference frozen dataclasses the same way: equality, hash, repr where
    the class keeps the dataclass repr, pickling and refused assignment."""
    # validation reads the insertions file `x` one scenario names
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x").write_text(json.dumps([[{"factor": 1, "bundle": "O(1)", "degree": 1}]]))
    partitions = [lam for n in range(9) for lam in partitions_of(n)]
    mps = [mp for n in range(5) for mp in multipartitions(p2(), n)]
    mps += [mp for n in range(4) for mp in multipartitions(p1xp1(), n)]
    plain_of = {lam: PlainPartition(lam.parts) for lam in partitions}
    for lam in partitions:
        assert lam.size == sum(lam.parts)
        assert hash(lam) == hash(plain_of[lam])
        assert lam == Partition(lam.parts)
        assert repr(lam) == "Partition([" + ",".join(map(str, lam.parts)) + "])"
        copy = pickle.loads(pickle.dumps(lam))
        assert (copy, copy.size, hash(copy)) == (lam, lam.size, hash(lam))
    for mp in mps:
        assert mp.total == sum(sum(lam.parts) for lam in mp.parts)
        assert mp.shape == tuple(lam.parts for lam in mp.parts)
        assert hash(mp) == hash(PlainMultiPartition(tuple(plain_of[lam] for lam in mp.parts)))
        assert mp == MultiPartition(mp.parts)
        assert repr(mp) == f"MultiPartition({mp.to_text()})"
        copy = pickle.loads(pickle.dumps(mp))
        assert (copy, copy.total, copy.shape, hash(copy)) == (mp, mp.total, mp.shape, hash(mp))
    assert len(set(partitions)) == len(partitions)
    assert len(set(mps)) == len(mps)

    groups = record_groups()
    groups.update(partition=partitions, multipartition=mps)
    for name, values in groups.items():
        references = [plain(value) for value in values]
        assert len(set(references)) > 1, name
        assert [hash(value) for value in values] == [hash(ref) for ref in references], name
        assert [a == b for a in values for b in values] == [
            a == b for a in references for b in references
        ], name
        for value, reference in zip(values, references):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and hash(copy) == hash(value)
            field = fields(reference)[0].name
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
            if type(value) in REFERENCE or type(value) is Insertion:
                assert repr(value) == repr(reference)
    # records of different classes are never equal, and no record orders
    assert WeightSpec(2, 3) != (2, 3)
    # c(T) is not c(O) of the same factor and degree
    assert ChernFactor(0, None, 2) != ChernFactor(0, line_bundle(p2(), 0), 2)
    with pytest.raises(TypeError):
        WeightSpec(2, 3) < WeightSpec(3, 2)
    with pytest.raises(TypeError):
        Partition((1,)) <= Partition((2,))
    # the records that hold functions or ring elements are immutable too, and
    # a bundle of the symbolic ring is unhashable, as its Element is
    bundle = generic_bundle(FormalRing(2), "E", 1)
    for record, field in [(p2(), "charts"), (line_bundle(p2(), 1), "label"), (bundle, "rank"),
                          (SCENARIO_KINDS["vanish"], "cases")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(TypeError):
        hash(bundle)


#: sha256 of every enumeration order below, recorded from the separate
#: enumerators that the one slot-by-slot generator replaced
ENUMERATION_ORDER_DIGEST = "95eee358dfecd2bfc14d16505024c42b4f2a1f804ca261da046bcb344a667ae0"
# the benchmark's chain sizes, then those of the `all` battery
CHAIN_SIZES = (
    (p2(), (3, 2)), (p1xp1(), (2, 2)), (p2(), (2, 1, 1)), (p2(), (2, 1)), (p2(), (1, 1, 1)),
)


def enumeration_order_lines():
    for n in range(9):
        yield f"partitions_of {n}: " + " ".join(lam.to_text() for lam in partitions_of(n))
    for lam in partitions_of(6):
        for m in range(7):
            mus = subpartitions(lam, m)
            yield f"subpartitions {lam.to_text()} {m}: " + " ".join(mu.to_text() for mu in mus)
    for surface in (p2(), p1xp1()):
        for n in range(7):
            mps = multipartitions(surface, n)
            yield f"multipartitions {surface.name} {n}: " + " ".join(mp.to_text() for mp in mps)
    for surface, sizes in CHAIN_SIZES:
        chains = nested_chains(surface, sizes)
        yield f"nested_chains {surface.name} {sizes}: " + " ".join(ch.to_text() for ch in chains)


def test_enumeration_order_unchanged():
    """Every tuple the enumerators return, in order: the localization sums
    and every report list fixed points and chains in this order."""
    digest = hashlib.sha256("\n".join(enumeration_order_lines()).encode()).hexdigest()
    assert digest == ENUMERATION_ORDER_DIGEST
