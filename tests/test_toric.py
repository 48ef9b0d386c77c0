import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from nestloc.characters import LaurentPoly
from nestloc.integrals import WeightSpec, hrr_chi, insertion_basis, k_theory_chi, sample_specs
from nestloc.toric import (
    EqLineBundle,
    ToricSurface,
    bundle_by_label,
    line_bundle,
    p1xp1,
    p2,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def test_fixed_point_counts():
    assert p2().euler_number == 3
    assert p1xp1().euler_number == 4


def test_tangent_weights_are_lattice_bases():
    for surface in (p2(), p1xp1()):
        for w1, w2 in surface.charts:
            assert abs(w1[0] * w2[1] - w1[1] * w2[0]) == 1


def test_surface_validation():
    with pytest.raises(ValueError):
        ToricSurface("bad", (((2, 0), (0, 1)),))
    with pytest.raises(ValueError):
        ToricSurface("empty", ())


def test_line_bundle_weights():
    trivial = line_bundle(p2(), 0)
    assert trivial.weights == ((0, 0), (0, 0), (0, 0))
    assert trivial.label == "O"
    o2 = line_bundle(p2(), 2)
    assert o2.weights == ((0, 0), (-2, 0), (0, -2))
    with pytest.raises(ValueError):
        line_bundle(p2(), 1, 1)
    with pytest.raises(ValueError):
        line_bundle(p1xp1(), 1)


def test_bundle_by_label():
    assert bundle_by_label(p2(), "O(2)") == line_bundle(p2(), 2)
    assert bundle_by_label(p1xp1(), "O(1,0)") == line_bundle(p1xp1(), 1, 0)
    assert bundle_by_label(p1xp1(), "O") == line_bundle(p1xp1(), 0, 0)
    with pytest.raises(ValueError):
        bundle_by_label(p2(), "K")


def test_cache_keys_hash_equal_when_rebuilt_or_unpickled():
    """Surfaces and bundles key every character cache: one built twice or
    copied through pickle is the same key.  Multipartitions are checked in
    test_combinatorics."""
    for surface in (p2(), p1xp1()):
        rebuilt = ToricSurface(surface.name, surface.charts)
        assert rebuilt == surface and hash(rebuilt) == hash(surface)
        for degrees in surface.hrr_degrees:
            bundle = line_bundle(surface, *degrees)
            again = line_bundle(surface, *degrees)
            copy = pickle.loads(pickle.dumps(bundle))
            assert bundle == again == copy
            assert hash(bundle) == hash(again) == hash(copy)


def test_distinct_bundles_and_factors_hash_apart():
    """hash(-1) == hash(-2) in CPython, so a hash of the weights as they
    are gives p2's O(1) and O(2) one value, and every dict keyed by a
    bundle or a factor falls back to `__eq__` between them."""
    bundles = set()
    for surface in (p2(), p1xp1()):
        bundles.update(surface.battery_bundles + surface.twist_bundles)
        bundles.update(line_bundle(surface, *degrees) for degrees in surface.hrr_degrees)
        arity = len(surface.fibers)
        bundles.update(line_bundle(surface, *(d,) * arity) for d in (-1, -2))
    assert bundle_by_label(p2(), "O(2)") in bundles
    assert len({hash(bundle) for bundle in bundles}) == len(bundles)
    factors = {f for ins in insertion_basis(p2(), (5, 3), 8) for f in ins.factors}
    assert len(factors) == 42
    assert len({hash(f) for f in factors}) == 42


def test_surface_and_bundle_hashes_do_not_depend_on_the_hash_seed():
    code = (
        "from nestloc.toric import bundle_by_label, p2\n"
        "print(hash(bundle_by_label(p2(), 'O(1)')), hash(p2()))"
    )
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1


#: sampled specs and explicit ones, one with a negative coordinate
HRR_SPECS = (WeightSpec(2, 3), WeightSpec(-5, 7))


# hrr_degrees, then negative and large degrees beyond them
@pytest.mark.parametrize("d", [*range(4), -4, -1, 5])
def test_hrr_p2_pins_conventions(d):
    # chi(O(d)) = (d+1)(d+2)/2 by monomial count
    expected = Fraction((d + 1) * (d + 2), 2)
    assert p2().chi(d) == expected
    for spec in sample_specs(7, 3) + HRR_SPECS:
        assert hrr_chi(p2(), line_bundle(p2(), d), spec) == expected


@pytest.mark.parametrize(
    "a,b", [(a, b) for a in range(3) for b in range(3)] + [(3, -2), (-1, -1), (4, 1)]
)
def test_hrr_p1xp1(a, b):
    expected = Fraction((a + 1) * (b + 1))
    assert p1xp1().chi(a, b) == expected
    for spec in sample_specs(11, 3) + HRR_SPECS:
        assert hrr_chi(p1xp1(), line_bundle(p1xp1(), a, b), spec) == expected


def test_hrr_chi_of_structure_sheaf_is_one():
    for surface in (p2(), p1xp1()):
        trivial = bundle_by_label(surface, "O")
        assert hrr_chi(surface, trivial, WeightSpec(1, 2)) == 1


def test_hrr_chi_integrates_the_weights_it_is_given():
    """The kernel reads L's weights, not its label: O(2)'s weights give
    chi(O(2)) = 6 under the label O(1) and under a label naming no bundle."""
    weights = line_bundle(p2(), 2).weights
    spec = WeightSpec(2, 3)
    assert hrr_chi(p2(), EqLineBundle("O(1)", weights), spec) == 6
    assert hrr_chi(p2(), EqLineBundle("L", weights), spec) == 6


def lattice_character(surface_name, degrees):
    """Independent H^0 oracle: sum of t^m over section lattice points."""
    if surface_name == "p2":
        (d,) = degrees
        points = [(-b, -c) for b in range(d + 1) for c in range(d + 1 - b)]
    else:
        a, b = degrees
        points = [(-i, -j) for i in range(a + 1) for j in range(b + 1)]
    return LaurentPoly({point: 1 for point in points})


@pytest.mark.parametrize(
    "surface,degrees",
    [(p2(), (d,)) for d in range(4)] + [(p1xp1(), (a, b)) for a in range(3) for b in range(3)],
)
def test_k_theory_sum_matches_lattice_character(surface, degrees):
    # Brion identity: the localization sum N / D is the H^0 character, as
    # Laurent polynomials once D is cleared
    num, den = k_theory_chi(surface, line_bundle(surface, *degrees))
    assert num == lattice_character(surface.name, degrees) * den
    # one lattice point short, the identity fails
    short = lattice_character(surface.name, degrees) - LaurentPoly.monomial(0, 0)
    assert num != short * den


def test_k_theory_trivial_bundle_is_constant_one():
    for surface in (p2(), p1xp1()):
        num, den = k_theory_chi(surface, bundle_by_label(surface, "O"))
        assert num == den
