"""Acceptance suite: every criterion at its stated tolerance.

All value checks are exact (zero tolerance) rational arithmetic; the two
timed suites assert their stated wall-clock budgets.  Each criterion
prints one pass/fail line (visible with `pytest -s` or in failure output).
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from nestloc.characters import LaurentPoly
from nestloc.chern import FormalRing, generic_bundle, segre, thom_porteous, verify_higher_tp
from nestloc.combinatorics import box_character, mp_contains, multipartitions, partitions_of
from nestloc.errors import DegreeMismatchError, ZeroWeightError
from nestloc.harness import _sampled_case, arm_leg_vertex, splitting_twist_oracle
from nestloc.integrals import (
    CoFactor,
    Insertion,
    TangentFactor,
    TautFactor,
    WeightSpec,
    euler_class,
    hrr_chi,
    insertion_basis,
    integrate_ambient_batch,
    integrate_virtual_batch,
    sample_specs,
)
from nestloc.toric import bundle_by_label, line_bundle, p1xp1, p2
from nestloc.vertex import co_class, vertex_V

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
SPECS = sample_specs(20260808, 3)
PAIR_SIZES = ((1, 1), (2, 1), (2, 2), (3, 2))
SURFACES = (p2(), p1xp1())


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_fixed_point_counts_and_euler_integrals():
    with criterion(1, "fixed-point counts match Euler-class integrals, < 1 s each"):
        targets = [(p2(), 2, 9), (p2(), 3, 22), (p1xp1(), 2, 14)]
        for surface, n, expected in targets:
            started = time.perf_counter()
            assert len(multipartitions(surface, n)) == expected
            insertion = Insertion((TangentFactor(0, 2 * n),))
            for spec in SPECS:
                assert integrate_ambient_batch(surface, (n,), [insertion], spec)[0] == expected
            assert time.perf_counter() - started < 1.0


def test_criterion_2_hrr_convention_pinning():
    with criterion(2, "hrr-check chi values at >= 3 generic specs, exact"):
        for d in range(4):
            expected = Fraction((d + 1) * (d + 2), 2)
            values = {hrr_chi(p2(), line_bundle(p2(), d), spec) for spec in SPECS}
            assert values == {expected}
        for a in range(3):
            for b in range(3):
                expected = Fraction((a + 1) * (b + 1))
                values = {hrr_chi(p1xp1(), line_bundle(p1xp1(), a, b), spec) for spec in SPECS}
                assert values == {expected}


def _run_vanishing(surface, sizes, twists):
    n1, n2 = sizes
    for twist in twists:
        for i in (1, 2):
            basis = insertion_basis(surface, sizes, n1 + n2 - i)
            co = [CoFactor(0, n1 + n2 + i, bundle_by_label(surface, twist))]
            for spec in SPECS:
                values = integrate_ambient_batch(surface, sizes, basis, spec, co)
                assert all(v == 0 for v in values), (surface.name, sizes, twist, i)


def test_criterion_3_carlsson_okounkov_vanishing():
    with criterion(3, "CO vanishing, all pairs/surfaces/i, full bases, 3 specs"):
        for surface in SURFACES:
            for sizes in PAIR_SIZES:
                _run_vanishing(surface, sizes, ("O",))


def test_criterion_4_pushforward_identity():
    with criterion(4, "pushforward identity ambient == virtual, exact"):
        for surface in SURFACES:
            for sizes in PAIR_SIZES:
                degree = sum(sizes)
                basis = insertion_basis(surface, sizes, degree)
                co = [CoFactor(0, degree, bundle_by_label(surface, "O"))]
                per_spec = []
                for spec in SPECS:
                    ambient = integrate_ambient_batch(surface, sizes, basis, spec, co)
                    virtual = integrate_virtual_batch(surface, sizes, basis, spec)
                    assert ambient == virtual, (surface.name, sizes)
                    per_spec.append(ambient)
                assert per_spec[0] == per_spec[1] == per_spec[2], (surface.name, sizes)
                assert any(v != 0 for v in per_spec[0]), (surface.name, sizes)


def test_criterion_5_kstep_product_formula():
    with criterion(5, "k-step product formula on P^2 for (2,1,1) and (1,1,1)"):
        for sizes in ((2, 1, 1), (1, 1, 1)):
            degree = sizes[0] + sizes[-1]
            basis = insertion_basis(p2(), sizes, degree)
            trivial = bundle_by_label(p2(), "O")
            co = [CoFactor(m, sizes[m] + sizes[m + 1], trivial) for m in range(len(sizes) - 1)]
            per_spec = []
            for spec in SPECS:
                ambient = integrate_ambient_batch(p2(), sizes, basis, spec, co)
                virtual = integrate_virtual_batch(p2(), sizes, basis, spec)
                assert ambient == virtual, sizes
                per_spec.append(ambient)
            assert per_spec[0] == per_spec[1] == per_spec[2], sizes
            assert any(v != 0 for v in per_spec[0]), sizes


def test_criterion_6_twisted_vanishing():
    with criterion(6, "twisted vanishing with the line-bundle battery"):
        for surface in SURFACES:
            for sizes in PAIR_SIZES:
                _run_vanishing(surface, sizes, surface.twists)


def test_criterion_7_symbolic_thom_porteous_suite():
    with criterion(7, "symbolic Thom-Porteous suite, exact, < 10 s"):
        started = time.perf_counter()
        ring = FormalRing(8)
        e = generic_bundle(ring, "E", -1)
        for b in range(1, 5):
            assert thom_porteous(1, b, e) == e.chern(b)
        for a in range(1, 5):
            assert thom_porteous(a, 0, e) == ring.one()
        for r0 in range(1, 4):
            for r1 in range(1, 6):
                for i in range(4):
                    if r1 - r0 + 1 + i <= 8:
                        assert verify_higher_tp(r0, r1, i, 8), (r0, r1, i)
        for r in range(1, 5):
            for k in range(1, 5):
                assert splitting_twist_oracle(r, k), (r, k)
        s = segre(e)
        for k in range(1, 9):
            acc = ring.zero()
            for i in range(k + 1):
                acc = acc + s[i] * e.chern(k - i)
            assert acc.is_zero()
        assert time.perf_counter() - started < 10.0


def test_criterion_8_vertex_property_suite():
    with criterion(8, "vertex suite: Serre duality, rank law, arm/leg, effectivity, < 10 s"):
        started = time.perf_counter()
        u1u2 = LaurentPoly.monomial(1, 1)
        shapes4 = [lam for k in range(5) for lam in partitions_of(k)]
        for lam in shapes4:
            for mu in shapes4:
                q1, q2 = box_character(lam), box_character(mu)
                v = vertex_V(q1, q2)
                assert v.bar() == u1u2 * vertex_V(q2, q1)
                assert v.rank_eval() == lam.size + mu.size
        for k in range(6):
            for lam in partitions_of(k):
                q = box_character(lam)
                assert vertex_V(q, q) == arm_leg_vertex(lam, lam)
        trivial = bundle_by_label(p2(), "O")
        for n1 in range(1, 5):
            for n2 in range(n1 + 1):
                for mp1 in multipartitions(p2(), n1):
                    for mp2 in multipartitions(p2(), n2):
                        if mp_contains(mp1, mp2):
                            value = co_class(p2(), mp1, mp2, trivial)
                            assert value.coefficient((0, 0)) == 0
                            assert all(c >= 0 for _, c in value.terms())
        assert time.perf_counter() - started < 10.0


def test_criterion_9_robustness():
    with criterion(9, "robustness: seeds, degree errors, zero weight, parallel bytes"):
        # spec independence across 3 seeds for a representative integral
        basis = insertion_basis(p2(), (2, 1), 3)
        co = [CoFactor(0, 3, bundle_by_label(p2(), "O"))]
        per_seed = []
        for seed in (1, 2, 3):
            spec = sample_specs(seed, 1)[0]
            per_seed.append(integrate_ambient_batch(p2(), (2, 1), basis, spec, co))
        assert per_seed[0] == per_seed[1] == per_seed[2]

        # deliberately wrong-degree integrand
        wrong = Insertion((TautFactor(0, line_bundle(p2(), 1), 1),))
        with pytest.raises(DegreeMismatchError):
            integrate_ambient_batch(p2(), (1,), [wrong], SPECS[0])[0]

        # wrong-degree inputs that dodge the bookkeeping still trip the
        # scenarios' spec-dependence check
        values = [euler_class(LaurentPoly.monomial(1, 0), spec) for spec in SPECS]
        case = _sampled_case({}, SPECS, values, values, "mismatch")
        assert case["diagnostic"] == "SpecDependence: values differ"

        # synthetic character with net zero weight
        with pytest.raises(ZeroWeightError):
            euler_class(LaurentPoly({(0, 0): 1, (1, 0): 1}), SPECS[0])

        # parallel and serial CLI runs produce byte-identical reports
        env = dict(os.environ, PYTHONPATH=SRC)
        outputs = []
        for jobs in ("1", "4"):
            result = subprocess.run(
                [
                    sys.executable, "-m", "nestloc", "vanish", "--surface", "p2",
                    "--n", "2,1", "--i", "1,2", "--jobs", jobs, "--seed", "7",
                    "--format", "json", "--stable",
                ],
                capture_output=True,
                env=env,
                cwd=os.path.dirname(__file__),
            )
            assert result.returncode == 0
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["verdict"] == "pass"
