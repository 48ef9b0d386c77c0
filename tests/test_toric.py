import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from nestloc.errors import BundleMismatchError, MathError
from nestloc.integrals import WeightSpec, hrr_chi, k_theory_chi_sum, sample_specs
from nestloc.toric import (
    EqLineBundle,
    ToricSurface,
    bundle_by_label,
    line_bundle,
    p1xp1,
    p2,
    surface_by_name,
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


def test_surface_by_name():
    assert surface_by_name("p2") is p2()
    assert surface_by_name("p1xp1") is p1xp1()
    with pytest.raises(ValueError):
        surface_by_name("p3")


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
            assert hash(bundle) == hash(again) == hash(copy) == hash(bundle.weights)


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


def test_hrr_chi_refuses_a_bundle_its_label_does_not_name():
    """The kernel reads L by its label, so O(2)'s weights under the label
    O(1) would integrate O(1) (3, not 6); both that and a label naming no
    bundle are refused with the label and the weights, as a MathError."""
    weights = line_bundle(p2(), 2).weights
    spec = WeightSpec(2, 3)
    with pytest.raises(BundleMismatchError) as mismatch:
        hrr_chi(p2(), EqLineBundle("O(1)", weights), spec)
    assert str(mismatch.value) == (
        "bundle 'O(1)' has weights ((0, 0), (-2, 0), (0, -2)), "
        "but on p2 its label names weights ((0, 0), (-1, 0), (0, -1))"
    )
    with pytest.raises(BundleMismatchError) as unnamed:
        hrr_chi(p2(), EqLineBundle("L", weights), spec)
    assert str(unnamed.value) == (
        "bundle 'L' has weights ((0, 0), (-2, 0), (0, -2)), but on p2 its label names no line bundle"
    )
    assert isinstance(unnamed.value, MathError) and unnamed.value.name == "BundleMismatch"
    assert hrr_chi(p2(), EqLineBundle("O(2)", weights), spec) == 6


def lattice_character_value(surface_name, degrees, t1, t2):
    """Independent H^0 oracle: sum of t^m over section lattice points."""
    total = Fraction(0)
    if surface_name == "p2":
        (d,) = degrees
        for b in range(d + 1):
            for c in range(d + 1 - b):
                total += t1 ** (-b) * t2 ** (-c)
    else:
        a, b = degrees
        for i in range(a + 1):
            for j in range(b + 1):
                total += t1 ** (-i) * t2 ** (-j)
    return total


@pytest.mark.parametrize(
    "surface,degrees",
    [(p2(), (d,)) for d in range(4)] + [(p1xp1(), (a, b)) for a in range(3) for b in range(3)],
)
def test_k_theory_sum_matches_lattice_character(surface, degrees):
    # Brion identity: localization sum equals the H^0 character at generic t
    bundle = line_bundle(surface, *degrees)
    points = [(Fraction(2), Fraction(3)), (Fraction(5, 2), Fraction(7, 3)), (Fraction(-3), Fraction(4))]
    for t1, t2 in points:
        got = k_theory_chi_sum(surface, bundle, t1, t2)
        assert got == lattice_character_value(surface.name, degrees, t1, t2)


def test_k_theory_trivial_bundle_is_constant_one():
    for surface in (p2(), p1xp1()):
        trivial = bundle_by_label(surface, "O")
        for t1, t2 in ((Fraction(2), Fraction(3)), (Fraction(7), Fraction(5))):
            assert k_theory_chi_sum(surface, trivial, t1, t2) == 1
