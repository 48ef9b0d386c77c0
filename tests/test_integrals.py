import json
import os
from fractions import Fraction

import pytest

from nestloc.characters import LaurentPoly
from nestloc.combinatorics import MultiPartition, Partition, multipartitions
from nestloc.errors import (
    DegreeMismatchError,
    NonGenericSpecError,
    SpecDependenceError,
    ZeroWeightError,
)
from nestloc.integrals import (
    CoFactor,
    Insertion,
    TangentFactor,
    TautFactor,
    WeightSpec,
    chern_series,
    consistency_run,
    euler_class,
    insertion_basis,
    integrate_ambient,
    integrate_ambient_batch,
    integrate_virtual,
    integrate_virtual_batch,
    sample_specs,
)
from nestloc.series import TruncatedSeries, binomial
from nestloc.toric import bundle_by_label, p1xp1, p2
from nestloc.vertex import tangent_char, taut_char

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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
    assert chern_series(LaurentPoly.zero(), spec, 3) == TruncatedSeries([1, 0, 0, 0])
    assert chern_series(LaurentPoly.monomial(1, 0), spec, 2) == TruncatedSeries([1, 1, 0])
    # (1+2t)/(1+3t) = 1 - t + 3t^2
    spec23 = WeightSpec(2, 3)
    char = lp({(1, 0): 1, (0, 1): -1})
    assert chern_series(char, spec23, 2) == TruncatedSeries([1, -1, 3])


def test_chern_series_constant_term_is_one():
    spec = WeightSpec(5, 7)
    char = lp({(1, 0): 2, (0, 1): -3, (1, 1): 1, (0, 0): 4})
    series = chern_series(char, spec, 5)
    assert series.coefficient(0) == 1


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


@pytest.mark.parametrize("surface", [p2(), p1xp1()])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_euler_count_localization(surface, n):
    expected = len(multipartitions(surface, n))
    insertion = Insertion((TangentFactor(0, 2 * n),))
    for spec in sample_specs(3, 3):
        assert integrate_ambient(surface, (n,), insertion, spec) == expected


def test_taut_square_on_p2():
    # S^[1] = P^2 and taut(O(1))^[1] = O(1): int h^2 = 1
    insertion = Insertion((TautFactor(0, "O(1)", 1), TautFactor(0, "O(1)", 1)))
    spec = sample_specs(5, 1)[0]
    assert integrate_ambient(p2(), (1,), insertion, spec) == 1


def test_degree_mismatch_ambient():
    insertion = Insertion((TautFactor(0, "O(1)", 1),))
    with pytest.raises(DegreeMismatchError):
        integrate_ambient(p2(), (1,), insertion, WeightSpec(1, 2))


def test_degree_mismatch_virtual():
    insertion = Insertion((TautFactor(0, "O(1)", 1),))
    with pytest.raises(DegreeMismatchError):
        integrate_virtual(p2(), (1, 1), insertion, WeightSpec(1, 2))


def test_virtual_degenerate_sizes():
    spec = WeightSpec(3, 5)
    assert integrate_virtual(p2(), (0, 0), Insertion(()), spec) == 1


def test_virtual_spec_independence():
    insertion = Insertion((TautFactor(0, "O(1)", 3),))
    values = {integrate_virtual(p2(), (2, 1), insertion, spec) for spec in sample_specs(9, 3)}
    assert len(values) == 1


def test_pushforward_identity_small():
    # the acceptance identity at (1,1): ambient with c_2(co) equals virtual
    basis = insertion_basis(p2(), (1, 1), 2)
    spec = sample_specs(13, 1)[0]
    ambient = integrate_ambient_batch(p2(), (1, 1), basis, spec, [CoFactor(0, 2)])
    virtual = integrate_virtual_batch(p2(), (1, 1), basis, spec)
    assert ambient == virtual
    assert any(v != 0 for v in virtual)


def test_pushforward_known_value_diagonal_taut_pair():
    # c_2(co) . c1(taut O(1) on factor 1) . c1(taut O(1) on factor 2) over
    # P^2 x P^2 localizes to the diagonal: both routes give int h^2 = 1
    insertion = Insertion((TautFactor(0, "O(1)", 1), TautFactor(1, "O(1)", 1)))
    for spec in sample_specs(37, 3):
        ambient = integrate_ambient(p2(), (1, 1), insertion, spec, [CoFactor(0, 2)])
        virtual = integrate_virtual(p2(), (1, 1), insertion, spec)
        assert ambient == virtual == 1


def test_insertion_basis_degree_zero():
    assert insertion_basis(p2(), (1,), 0) == (Insertion(()),)


def test_insertion_basis_restricted_battery():
    got = insertion_basis(p2(), (1,), 1, battery=("O(1)",))
    assert got == (Insertion((TautFactor(0, "O(1)", 1),)),)


def test_insertion_basis_deterministic_and_duplicate_free():
    basis = insertion_basis(p2(), (2, 1), 3)
    assert basis == insertion_basis(p2(), (2, 1), 3)
    labels = [ins.label() for ins in basis]
    assert len(set(labels)) == len(labels)
    assert all(ins.total_degree == 3 for ins in basis)


def test_insertion_basis_counts_golden():
    with open(os.path.join(GOLDEN, "insertion_basis_counts.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    from nestloc.toric import surface_by_name

    for row in table:
        surface = surface_by_name(row["surface"])
        got = len(insertion_basis(surface, tuple(row["n"]), row["degree"]))
        assert got == row["count"], row


def test_consistency_run_fixed_point_count():
    insertion = Insertion((TangentFactor(0, 4),))
    value = consistency_run(
        lambda spec: integrate_ambient(p2(), (2,), insertion, spec), sample_specs(17, 3)
    )
    assert value == 9


def test_consistency_run_detects_spec_dependence():
    char = lp({(1, 0): 1, (0, 1): 1})
    with pytest.raises(SpecDependenceError):
        consistency_run(lambda spec: euler_class(char, spec), sample_specs(19, 3))


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
    phi1 = Insertion((TautFactor(0, "O(1)", 4), TautFactor(1, "O(1)", 2)))
    phi2 = Insertion(
        (TautFactor(0, "O(1)", 3), TautFactor(0, "O(2)", 1), TautFactor(1, "O(2)", 2))
    )
    a, b = Fraction(3), Fraction(-5, 2)

    def value_of(ins, mps):
        out = Fraction(1)
        for f in ins.factors:
            char = taut_char(surface, bundle_by_label(surface, f.bundle), mps[f.factor])
            out *= chern_series(char, spec, f.degree).coefficient(f.degree)
        return out

    combined = Fraction(0)
    for mps in product(multipartitions(surface, 2), multipartitions(surface, 1)):
        denom = Fraction(1)
        for mp in mps:
            denom *= euler_class(tangent_char(surface, mp), spec)
        combined += (a * value_of(phi1, mps) + b * value_of(phi2, mps)) / denom
    separate = integrate_ambient_batch(surface, (2, 1), [phi1, phi2], spec, [])
    assert combined == a * separate[0] + b * separate[1]
