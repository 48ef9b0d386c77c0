from fractions import Fraction

import pytest

from nestloc.chern import (
    Element,
    FormalBundle,
    FormalRing,
    _exact,
    generic_bundle,
    proj_pushforward,
    segre,
    thom_porteous,
    twist_by_line,
    verify_higher_tp,
    whitney_difference,
)
from nestloc.errors import TruncationOverflowError
from nestloc.harness import splitting_twist_oracle
from nestloc.integrals import WeightSpec, chern_series
from nestloc.characters import LaurentPoly


def evaluate(element: Element, values) -> Fraction:
    """`element` with its generators bound to the rationals `values` by
    name; a float is refused as the ring refuses it."""
    bound = {element.ring._index[name]: _exact(v) for name, v in values.items()}
    total = Fraction(0)
    for monos in element.table.values():
        for mono, coeff in monos.items():
            term = coeff
            for idx, exp in mono:
                if idx not in bound:
                    raise ValueError(f"no value bound to {element.ring._names[idx]!r}")
                term *= bound[idx] ** exp
            total += term
    return total


def test_generic_bundle_rank_zero():
    ring = FormalRing(4)
    e = generic_bundle(ring, "E", 0)
    assert e.total_chern == ring.one()


def test_generic_bundle_truncates_at_rank():
    ring = FormalRing(3)
    e = generic_bundle(ring, "E", 2)
    assert not e.chern(1).is_zero()
    assert not e.chern(2).is_zero()
    assert e.chern(3).is_zero()


def test_generic_virtual_bundle_has_generators_through_truncation():
    ring = FormalRing(3)
    e = generic_bundle(ring, "E", -1)
    for j in (1, 2, 3):
        assert not e.chern(j).is_zero()


def test_whitney_difference_examples():
    ring = FormalRing(4)
    a = generic_bundle(ring, "A", 3)
    b = generic_bundle(ring, "B", 2)
    same = whitney_difference(a, a)
    assert same.rank == 0
    assert same.total_chern == ring.one()
    diff = whitney_difference(a, b)
    assert diff.chern(1) == a.chern(1) - b.chern(1)
    expected_c2 = a.chern(2) - a.chern(1) * b.chern(1) + b.chern(1) * b.chern(1) - b.chern(2)
    assert diff.chern(2) == expected_c2


def test_whitney_associativity():
    ring = FormalRing(6)
    a = generic_bundle(ring, "A", 2)
    b = generic_bundle(ring, "B", 2)
    c = generic_bundle(ring, "C", 2)
    left = whitney_difference(whitney_difference(a, b), c)
    b_plus_c = FormalBundle(ring, 4, b.total_chern * c.total_chern)
    right = whitney_difference(a, b_plus_c)
    assert left.total_chern == right.total_chern
    assert left.rank == right.rank


def test_segre_examples():
    ring = FormalRing(4)
    e = generic_bundle(ring, "E", 4)
    s = segre(e)
    assert s[0] == ring.one()
    assert s[1] == -e.chern(1)
    assert s[2] == e.chern(1) * e.chern(1) - e.chern(2)
    trivial = generic_bundle(FormalRing(4), "T", 0)
    assert segre(trivial)[0] == trivial.ring.one()
    assert all(segre(trivial)[i].is_zero() for i in (1, 2, 3, 4))


def test_segre_chern_inversion_to_degree_8():
    ring = FormalRing(8)
    e = generic_bundle(ring, "E", -1)
    s = segre(e)
    for k in range(1, 9):
        acc = ring.zero()
        for i in range(k + 1):
            acc = acc + s[i] * e.chern(k - i)
        assert acc.is_zero()


def test_thom_porteous_examples():
    ring = FormalRing(6)
    e = generic_bundle(ring, "E", -1)
    for b in (1, 2, 3):
        assert thom_porteous(1, b, e) == e.chern(b)
    c1, c2 = e.chern(1), e.chern(2)
    assert thom_porteous(2, 1, e) == c1 * c1 - c2
    for a in (1, 2, 3, 4):
        assert thom_porteous(a, 0, e) == ring.one()


def test_thom_porteous_truncation_overflow():
    ring = FormalRing(3)
    e = generic_bundle(ring, "E", -1)
    with pytest.raises(TruncationOverflowError):
        thom_porteous(2, 2, e)


def test_twist_by_line_examples():
    ring = FormalRing(4)
    f = generic_bundle(ring, "F", 3)
    m = ring.add_generator("m", 1)
    assert twist_by_line(f, m, 1) == f.chern(1) + 3 * m
    assert twist_by_line(f, ring.zero(), 2) == f.chern(2)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_twist_matches_splitting_oracle(r, k):
    assert splitting_twist_oracle(r, k)


def test_proj_pushforward_examples():
    ring = FormalRing(4)
    e0 = generic_bundle(ring, "E0", 3)
    one = ring.one()
    assert proj_pushforward({2: one}, e0) == one  # zeta^{r0-1}
    assert proj_pushforward({1: one}, e0).is_zero()  # s_{-1} = 0
    assert proj_pushforward({3: one}, e0) == -e0.chern(1)  # s_1


def test_verify_higher_tp_examples():
    assert verify_higher_tp(1, 1, 0, 4)
    assert verify_higher_tp(2, 4, 2, 8)


def test_higher_tp_grid():
    for r0 in range(1, 4):
        for r1 in range(1, 6):
            for i in range(4):
                if r1 - r0 + 1 + i <= 8:
                    assert verify_higher_tp(r0, r1, i, 8), (r0, r1, i)


def test_verify_higher_tp_inverts_each_total_class_at_most_once(monkeypatch):
    """segre(E0) and c(E1 - E0) both read c(E0)^-1; it is computed once."""
    inverted = []
    original = Element.inverse

    def counting(self):
        inverted.append(self)
        return original(self)

    monkeypatch.setattr(Element, "inverse", counting)
    assert verify_higher_tp(2, 4, 2, 12)
    assert len(inverted) == len({id(element) for element in inverted}) == 1


def full_ring_higher_tp_routes(r0, r1, i, truncation):
    """Both routes of verify_higher_tp as it stood before the identity ring
    was cut at the identity's degree: generic bundles and c(E0)^{-1} built
    through the whole ring of the given truncation."""
    ring = FormalRing(truncation)
    e0 = generic_bundle(ring, "E0", r0)
    e1 = generic_bundle(ring, "E1", r1)
    zeta_poly = {i + r1 - j: e1.chern(j) for j in range(r1 + 1)}
    target = r1 - r0 + 1 + i
    return proj_pushforward(zeta_poly, e0), whitney_difference(e1, e0).chern(target)


@pytest.mark.parametrize("truncation", [8, 12])
def test_higher_tp_in_identity_degree_ring_matches_full_ring(truncation):
    # the grid of the symbolic-tp scenario
    for r0 in range(1, 4):
        for r1 in range(1, 6):
            for i in range(4):
                target = r1 - r0 + 1 + i
                if target > truncation:
                    continue
                full = full_ring_higher_tp_routes(r0, r1, i, truncation)
                cut = full_ring_higher_tp_routes(r0, r1, i, max(target, 0))
                for big, small in zip(full, cut):
                    assert big == big.degree_part(target), (r0, r1, i)
                    assert big.degree_part(target).to_text() == small.to_text(), (r0, r1, i)
                assert verify_higher_tp(r0, r1, i, truncation), (r0, r1, i)


def test_higher_tp_i_zero_reproduces_thom_porteous_column():
    # q_* route at i=0 equals Delta^1_{r1-r0+1}(c(E1-E0))
    ring = FormalRing(6)
    e0 = generic_bundle(ring, "E0", 2)
    e1 = generic_bundle(ring, "E1", 4)
    zeta_poly = {4 - j: e1.chern(j) for j in range(5)}
    pushed = proj_pushforward(zeta_poly, e0)
    assert pushed == thom_porteous(1, 3, whitney_difference(e1, e0))


def test_truncation_overflow_in_higher_tp():
    with pytest.raises(TruncationOverflowError):
        verify_higher_tp(1, 5, 3, 4)


def line_power_bundle(ring, h, rank, power):
    """O(power)^{rank} on a projective space ring: total class (1 + power*h)^rank."""
    total = ring.one()
    factor = ring.one() + power * h
    for _ in range(rank):
        total = total * factor
    return FormalBundle(ring, rank, total, f"O({power})^{rank}")


@pytest.mark.parametrize("m,n,r,expected", [(2, 2, 1, 2), (3, 3, 2, 3)])
def test_determinantal_degree_demo(m, n, r, expected):
    # E0 = O^m, E1 = O(1)^n on P^N; Delta^{m-r}_{n-r} coefficient of
    # h^{(m-r)(n-r)} is the classical generic determinantal degree
    codim = (m - r) * (n - r)
    ring = FormalRing(codim)
    h = ring.add_generator("h", 1)
    e0 = line_power_bundle(ring, h, m, 0)
    e1 = line_power_bundle(ring, h, n, 1)
    cls = thom_porteous(m - r, n - r, whitney_difference(e1, e0))
    top = cls.degree_part(codim)
    # extract the coefficient of h^codim
    coeff = evaluate(top, {"h": Fraction(1)})
    assert coeff == expected


def test_pretty_printer():
    ring = FormalRing(3)
    e = generic_bundle(ring, "E", 2)
    text = (e.chern(1) * e.chern(1) - e.chern(2)).to_text()
    assert "c1(E)" in text and "c2(E)" in text
    assert (2 * e.chern(1)).to_text() == "2*c1(E)"
    assert ring.zero().to_text() == "0"


def test_element_evaluate():
    ring = FormalRing(3)
    x = ring.add_generator("x", 1)
    y = ring.add_generator("y", 2)
    expr = x * x + 3 * y - 1
    assert evaluate(expr, {"x": 2, "y": Fraction(1, 3)}) == 4


def test_float_is_refused_by_scalar_and_evaluate():
    ring = FormalRing(3)
    x = ring.add_generator("x", 1)
    with pytest.raises(TypeError, match="float"):
        ring.scalar(0.1)
    with pytest.raises(TypeError, match="float"):
        evaluate(x, {"x": 0.5})
    with pytest.raises(TypeError):
        x * 0.5


class FractionRing(FormalRing):
    """The ring with `Fraction` coefficients throughout: the unit and every
    generator carry Fraction(1), so every product and sum is a Fraction."""

    def add_generator(self, name, degree):
        return super().add_generator(name, degree) * Fraction(1)

    def one(self):
        return Element(self, {0: {(): Fraction(1)}})


def symbolic_identity_tables(ring_class, truncation=8):
    """Coefficient tables of the `symbolic-tp` constructions over generic
    bundles: Segre classes, Delta^a_b, twists c_k(F (x) M), c(E1 - E0) and
    the projective-bundle pushforward of the higher-tp route."""
    ring = ring_class(truncation)
    e = generic_bundle(ring, "E", -1)
    e0 = generic_bundle(ring, "E0", 2)
    e1 = generic_bundle(ring, "E1", 4)
    f = generic_bundle(ring, "F", 3)
    m = ring.add_generator("m", 1)
    elements = list(segre(e))
    elements += [thom_porteous(a, b, e) for a in range(1, 5) for b in range(truncation + 1)
                 if a * b <= truncation]
    elements += [twist_by_line(f, m, k) for k in range(1, 5)]
    elements.append(whitney_difference(e1, e0).total_chern)
    elements.append(proj_pushforward({2 + 4 - j: e1.chern(j) for j in range(5)}, e0))
    return [element.table for element in elements]


def test_int_coefficients_match_the_fraction_ring():
    shipped = symbolic_identity_tables(FormalRing)
    oracle = symbolic_identity_tables(FractionRing)
    assert shipped == oracle

    def coefficients(tables):
        return [c for table in tables for monos in table.values() for c in monos.values()]

    assert {type(c) for c in coefficients(shipped)} == {int}
    assert {type(c) for c in coefficients(oracle)} == {Fraction}
    ring = FormalRing(2)
    assert ring.scalar(Fraction(1, 3)) * 3 == ring.one()


def test_cross_module_consistency_with_chern_series():
    # generators bound to elementary symmetric functions of specialized
    # weights reproduce the numeric Chern coefficients of the character
    spec = WeightSpec(3, 5)
    w = [(1, 0), (0, 1), (1, 1)]  # bundle A weights
    v = [(2, -1)]  # bundle B weights
    char_a = LaurentPoly({exp: 1 for exp in w})
    char_b = LaurentPoly({v[0]: 1})

    ring = FormalRing(4)
    a = generic_bundle(ring, "A", 3)
    b = generic_bundle(ring, "B", 1)
    diff = whitney_difference(a, b)

    def esym(values, k):
        from itertools import combinations

        total = Fraction(0)
        for sub in combinations(values, k):
            prod = Fraction(1)
            for x in sub:
                prod *= x
            total += prod
        return total

    aw = [Fraction(a * spec.s1 + b * spec.s2) for a, b in w]
    bw = [Fraction(a * spec.s1 + b * spec.s2) for a, b in v]
    binding = {f"c{j}(A)": esym(aw, j) for j in (1, 2, 3)}
    binding["c1(B)"] = esym(bw, 1)

    # c(A) = c(A - B) c(B), with A and B honest
    numeric_a = chern_series(char_a, spec, 4)
    numeric_b = chern_series(char_b, spec, 4)
    numeric_diff = [1] + [evaluate(diff.chern(k), binding) for k in range(1, 5)]
    for k in range(5):
        assert sum(numeric_diff[j] * numeric_b[k - j] for j in range(k + 1)) == numeric_a[k]
