"""Atiyah-Bott localization with exact weight specialization.

Equivariant parameters are specialized at generic integer points; an
integral whose integrand degree equals the (virtual) dimension is a
degree-0 equivariant constant, so its value is spec-independent; agreement
across the sampled specs is a sampled check of that, not a certificate
(ROADMAP item 2).  All arithmetic is exact, with no floating point.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import attrgetter, mul
from typing import Sequence

from .characters import LaurentPoly
from .combinatorics import MultiPartition, multipartitions, nested_chains
from .errors import DegreeMismatchError, DishonestClassError, NonGenericSpecError, ZeroWeightError
from .series import line_factor
from .toric import EqLineBundle, ToricSurface
from .value import Value, _set
from .vertex import co_class, tangent_char, taut_char, virtual_tangent_char


class WeightSpec(Value):
    """Specialization of the equivariant parameters at an integer point:
    (a, b) -> a s1 + b s2.  Its text is built once, so every sample of a
    report that echoes the spec shares one tuple."""

    _fields = ("s1", "s2")
    __slots__ = _fields + ("_text",)

    def __init__(self, s1: int, s2: int):
        self._init(s1, s2)
        _set(self, "_text", (str(s1), str(s2)))

    def to_text(self) -> tuple[str, str]:
        return self._text


def chern_series(char: LaurentPoly, spec: WeightSpec, order: int) -> tuple[int, ...]:
    """Coefficients of degrees 0..order of prod_w (1 + <w,s> tau)^{m_w} for
    an honest character, an Ext-class fold of `vertex`: a nonzero weight of
    negative multiplicity raises ValueError, and weight-zero terms
    contribute unity.  Each factor is multiplied in only up to the degree
    reached so far, so rank r costs r(r+1)/2 multiply-adds at any order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _chern_series_cached(char, spec, order)


# maxsize=0 stores nothing.  `_localize` expands a slot's series once per
# class of its factor in each sum, so a factor-0 fixed point that several
# points of a measure share is expanded once for each; a table of them
# per spec did not pay, and kept series held memory.  It stays an
# lru_cache, counting its calls, because `bench/spans.py` reads its
# cache_info().
@lru_cache(maxsize=0)
def _chern_series_cached(poly: LaurentPoly, spec: WeightSpec, order: int) -> tuple[int, ...]:
    s1, s2 = spec.s1, spec.s2
    coeffs = [1] + [0] * order
    degree = 0
    for (a, b), mult in poly.terms():
        value = a * s1 + b * s2
        if value:
            degree = line_factor(coeffs, value, mult, degree)
    return tuple(coeffs)


def euler_class(char: LaurentPoly, spec: WeightSpec) -> Fraction:
    """prod_w <w,s>^{m_w} over the nonzero exponents of the character.

    Raises ZeroWeightError when the zero exponent has nonzero net
    multiplicity (non-isolated virtual fixed locus) and NonGenericSpecError
    when some nonzero exponent pairs to 0.
    """
    return _euler_cached(char, spec)


@lru_cache(maxsize=65536)
def _euler_cached(poly: LaurentPoly, spec: WeightSpec) -> Fraction:
    if poly.coefficient((0, 0)):
        raise ZeroWeightError(
            f"character has net weight-zero multiplicity {poly.coefficient((0, 0))}: "
            f"{poly.to_text()}"
        )
    s1, s2 = spec.s1, spec.s2
    num = 1
    den = 1
    for exp, mult in poly.terms():
        value = exp[0] * s1 + exp[1] * s2
        if value == 0:
            raise NonGenericSpecError(
                f"exponent {exp} pairs to zero at s={','.join(spec.to_text())}"
            )
        if mult > 0:
            num *= value**mult
        else:
            den *= value**(-mult)
    return Fraction(num, den)


# --------------------------------------------------------------------------
# insertions
# --------------------------------------------------------------------------


class ChernFactor(Value):
    """c_degree of the tautological bundle of `bundle` on ambient factor
    `factor` (0-based), or of that factor's tangent bundle where `bundle`
    is None; (factor, bundle) keys the factor's Chern series.  Its label
    is built once, at construction, for every case that echoes it."""

    _fields = ("factor", "bundle", "degree")
    __slots__ = _fields + ("_label",)

    def __init__(self, factor: int, bundle: EqLineBundle | None, degree: int):
        self._init(factor, bundle, degree)
        name = "T" if bundle is None else bundle.label
        _set(self, "_label", f"c{degree}({name}@{factor + 1})")

    def label(self) -> str:
        return self._label


class Insertion(Value):
    """A monomial in tautological/tangent Chern classes of the ambient factors."""

    __slots__ = ("factors",)
    _fields = __slots__

    def __init__(self, factors: tuple[ChernFactor, ...] = ()):
        self._init(factors)

    @property
    def total_degree(self) -> int:
        return sum(f.degree for f in self.factors)

    def label(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f.label() for f in self.factors)


class CoFactor(Value):
    """c_degree of the co-class between ambient factors `left` and `left+1`,
    twisted by `bundle`."""

    __slots__ = ("left", "degree", "bundle")
    _fields = __slots__

    def __init__(self, left: int, degree: int, bundle: EqLineBundle):
        self._init(left, degree, bundle)

    def label(self) -> str:
        return f"c{self.degree}(CO[{self.bundle.label}]@{self.left + 1}{self.left + 2})"


def insertion_basis(
    surface: ToricSurface,
    sizes: Sequence[int],
    degree: int,
) -> tuple[Insertion, ...]:
    """All monomials of the given total degree in {c_j(taut(L) on factor m)}.

    Variables are ordered by (factor, battery position, j <= 2 n_m); the
    list is deterministic and duplicate-free.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    variables = [
        ChernFactor(m, bundle, j)
        for m, n in enumerate(sizes)
        for bundle in surface.battery_bundles
        for j in range(1, 2 * n + 1)
    ]

    out: list[Insertion] = []

    def gen(start: int, remaining: int, acc: tuple[ChernFactor, ...]):
        if remaining == 0:
            out.append(Insertion(acc))
            return
        for idx in range(start, len(variables)):
            var = variables[idx]
            if var.degree <= remaining:
                gen(idx, remaining - var.degree, acc + (var,))

    gen(0, degree, ())
    return tuple(out)


# --------------------------------------------------------------------------
# localization sums
# --------------------------------------------------------------------------


def _check_insertions(insertions: Sequence[Insertion], factors: int, degree: int) -> None:
    """DegreeMismatchError naming the first insertion, counted from 1, that
    names a factor outside the `factors` ambient ones, a negative degree,
    or a total degree other than `degree`, the one the integrand needs."""
    for index, ins in enumerate(insertions, 1):
        for f in ins.factors:
            if not 0 <= f.factor < factors or f.degree < 0:
                raise DegreeMismatchError(
                    f"factors count from 1 and degrees from 0, and this integrand has {factors} "
                    f"factors; got factor {f.factor + 1}, degree {f.degree} in monomial {index}"
                )
        if ins.total_degree != degree:
            raise DegreeMismatchError(
                f"monomial {index} has degree {ins.total_degree}, "
                f"and this integrand needs degree {degree}"
            )


#: a point measure: {fixed point steps: weight}, one tuple of multipartitions
#: per fixed point of a product of Hilbert schemes (or of a nested chain)
Measure = dict[tuple[MultiPartition, ...], Fraction]


class Integrand:
    """The monomials of one integrand, checked by `_check_insertions` at
    construction for `factors` ambient factors and total degree `degree`,
    with the plan `_localize` reads and the last sum it made.

    The plan does not depend on the spec or the measure: the trie of
    `_trie`, built the first time a nonempty measure needs it and read at
    every later spec and on both sides.  `key` is the (surface, spec,
    measure) of the last sum and `totals` its values: the ambient and
    virtual sums of a pushforward spec build equal measures apart, so
    the second of the two, given the same integrand, returns the first's
    totals.  The caller owns an integrand and its plan, so no plan
    outlives its owner: the harness builds one per group."""

    __slots__ = ("monomials", "checked", "trie", "key", "totals")

    def __init__(self, monomials: Sequence[Insertion], factors: int, degree: int):
        self.monomials = tuple(monomials)
        _check_insertions(self.monomials, factors, degree)
        self.checked = (factors, degree)
        self.trie: tuple | None = None
        self.key: tuple | None = None
        self.totals: list[Fraction] = []

    @classmethod
    def of(cls, insertions: Sequence[Insertion] | Integrand, factors: int,
           degree: int) -> Integrand:
        """`insertions` themselves where they are an integrand checked for
        `factors` and `degree`, else a fresh one of their monomials."""
        if isinstance(insertions, cls) and insertions.checked == (factors, degree):
            return insertions
        return cls(insertions, factors, degree)

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)


def _trie(insertions: tuple[Insertion, ...]) -> tuple:
    """The kernel's plan of `insertions`: (series keys, degrees, nodes,
    leaves), what `_localize` walks once per sum.

    A factor's Chern series is keyed by (ambient factor, bundle), None for
    the tangent bundle, and its key's place in the keys is its int slot;
    degrees[slot] are the degrees any insertion reads of it, ascending.
    Each insertion's factors are ordered by ambient factor, which leaves
    the product as it was, and the factor tuples form a prefix trie, built
    once whatever the insertions' order.  nodes lists it in pre-order, a
    node's children of lower ambient factors first, as (depth, series
    slot, degree, ambient factor); node 0 is the root, the empty product,
    at depth 0, and nodes[k - 1] is node k.  leaves[i] is the node of
    insertion i."""
    # every distinct factor gets a code, by ambient factor and then first
    # appearance: a path of codes sorts its factors, and sorted paths list
    # the trie in pre-order, lower ambient factors first
    distinct = sorted(dict.fromkeys(f for ins in insertions for f in ins.factors),
                      key=attrgetter("factor"))
    code = {f: i for i, f in enumerate(distinct)}
    paths = [tuple(sorted(map(code.__getitem__, ins.factors))) for ins in insertions]
    slots: dict[tuple[int, EqLineBundle | None], int] = {}
    degrees: list[set[int]] = []
    labels = []
    for f in distinct:
        slot = slots.setdefault((f.factor, f.bundle), len(degrees))
        if slot == len(degrees):
            degrees.append(set())
        degrees[slot].add(f.degree)
        labels.append((slot, f.degree, f.factor))
    nodes: list[tuple[int, int, int, int]] = []
    leaves = [0] * len(paths)
    # the nodes along the last path, from the root
    along, last = [0], ()
    for i in sorted(range(len(paths)), key=paths.__getitem__):
        path = paths[i]
        depth = 0
        for here, before in zip(path, last):
            if here != before:
                break
            depth += 1
        del along[depth + 1:]
        for c in path[depth:]:
            nodes.append((len(along),) + labels[c])
            along.append(len(nodes))
        leaves[i] = along[-1]
        last = path
    return tuple(slots), [tuple(sorted(d)) for d in degrees], nodes, leaves


def _suffix_classes(points: list[tuple[MultiPartition, ...]], m: int) -> list[int]:
    """The class of each fixed point of `points` at ambient factor m: points
    that agree on steps[m:], their fixed points of factors m and later,
    share one, numbered in order of first appearance."""
    classes: dict[tuple[MultiPartition, ...], int] = {}
    return [classes.setdefault(steps[m:], len(classes)) for steps in points]


def _runs(points: list[tuple[MultiPartition, ...]]) -> tuple:
    """(points, starts, merges): `points` ordered so that the classes of
    `_suffix_classes` at every ambient factor m >= 1 are runs, each run of
    factor m + 1 a run of factor m's runs; at factor 0 each point is its
    own class.  starts[m] holds the position of the first point of each
    class of factor m, and merges[a, b], for a < b, the (start, stop)
    indices of the runs of factor a's classes that factor b's classes
    are, or None where each class of b is one class of a."""
    factors = len(points[0])
    ranks = list(zip(*(_suffix_classes(points, m) for m in range(factors - 1, 0, -1))))
    if ranks:
        order = sorted(range(len(points)), key=ranks.__getitem__)
        points = [points[i] for i in order]
        ranks = [ranks[i] for i in order]
    starts = [list(range(len(points)))]
    for cut in range(factors - 1, 0, -1):
        starts.append([i for i in range(len(points)) if not i or ranks[i][:cut] != ranks[i - 1][:cut]])
    merges = {}
    for a in range(factors):
        place = {start: i for i, start in enumerate(starts[a])}
        for b in range(a + 1, factors):
            if len(starts[b]) < len(starts[a]):
                cuts = [place[start] for start in starts[b]] + [len(starts[a])]
                merges[a, b] = list(zip(cuts, cuts[1:]))
            else:
                merges[a, b] = None
    return points, starts, merges


def _localize(
    surface: ToricSurface,
    integrand: Integrand,
    spec: WeightSpec,
    measure: Measure,
) -> list[Fraction]:
    """sum_p weight_p * insertion(p) for every monomial of `integrand`,
    over the {steps: weight} measure of the fixed points p.

    An empty measure sums to zeros and reads no plan.  Otherwise the
    integrand's trie is built the first time a nonempty measure needs it
    and read at every later spec and side.  A call whose `_sum_key`
    equals the key of the integrand's last sum returns a copy of that
    sum's totals without summing: equal measures integrate every monomial
    to the same value, exactly.

    The trie is walked once, node by node, and each node holds a vector
    of `int`s: each weight is scaled to the lcm of the weights'
    denominators, and Chern coefficients are `int`s because specs are
    integral; each total is divided by that lcm once, at the end.  A node
    of ambient factor m runs over the classes of `_runs` at m, the points
    that share their fixed points of factors m and later, since a factor-m
    coefficient reads only those.  The root holds the scaled weights; a
    node's vector is its parent's times the node's column, its Chern
    coefficient at one point of each class; where a node of a later
    factor follows, its parent's vector is first summed over the classes
    that factor merges, which the pre-order of the trie does after the
    parent's children of its own factor.  Each insertion's total is the
    sum of its leaf's vector."""
    if not measure:
        return [Fraction(0)] * len(integrand)
    key = _sum_key(surface, spec, measure)
    if integrand.key == key:
        return list(integrand.totals)
    if integrand.trie is None:
        integrand.trie = _trie(integrand.monomials)
    keys, degrees, nodes, leaves = integrand.trie
    points, starts, merges = _runs(list(measure))
    # columns[slot][degree], for the degrees the trie reads of the slot
    columns = []
    for (m, bundle), reads in zip(keys, degrees):
        series = []
        for start in starts[m]:
            step = points[start][m]
            if bundle is None:
                char = tangent_char(surface, step)
            else:
                char = taut_char(surface, bundle, step)
            series.append(chern_series(char, spec, reads[-1]))
        columns.append({degree: [s[degree] for s in series] for degree in reads})
    common = math.lcm(*(weight.denominator for weight in measure.values()))
    root = []
    for steps in points:
        weight = measure[steps]
        root.append(weight.numerator * (common // weight.denominator))
    read = set(leaves)
    sums = {0: sum(root)} if 0 in read else {}
    # the factor and vector of the last node visited at each depth
    levels = [0] * (1 + max((node[0] for node in nodes), default=0))
    vectors = [root] * len(levels)
    for index, (depth, slot, degree, factor) in enumerate(nodes, 1):
        vector = vectors[depth - 1]
        level = levels[depth - 1]
        if level != factor:
            merge = merges[level, factor]
            if merge is not None:
                vector = vectors[depth - 1] = [sum(vector[i:j]) for i, j in merge]
            levels[depth - 1] = factor
        vector = vectors[depth] = list(map(mul, vector, columns[slot][degree]))
        levels[depth] = factor
        if index in read:
            sums[index] = sum(vector)
    out = [Fraction(sums[leaf], common) for leaf in leaves]
    integrand.key, integrand.totals = key, out
    return list(out)


def _sum_key(surface: ToricSurface, spec: WeightSpec, measure: Measure) -> tuple:
    """What a sum's totals read besides its integrand, compared by
    equality: the surface, the spec, and a copy of the measure, so a
    caller that mutates its own measure afterwards does not change it."""
    return surface, spec, dict(measure)


def ambient_measure(
    surface: ToricSurface,
    sizes: Sequence[int],
    spec: WeightSpec,
    co_factors: Sequence[CoFactor] = (),
) -> Measure:
    """{(mp_1, ..., mp_k): co / e(T_1)...e(T_k)} over the fixed points of
    S^[n_1] x ... x S^[n_k] whose co-class product co is nonzero.

    The co-class between factors m and m + 1 is, at every pair of fixed
    points, the arm/leg character of an honest bundle of rank
    r = n_m + n_{m+1}.  So a factor c_d reads no Chern series: it is 0 for
    d > r and the weight product prod <w,s>^m for d = r (0 if a weight
    pairs to 0).  d < r raises DegreeMismatchError before any sum, and a
    negative multiplicity raises DishonestClassError.  The factors of a
    point are read until one is 0.  Every factor's Euler classes are
    looked up once per fixed point, before the product, so a spec that is
    not generic for some fixed point raises even where every co-class
    factor vanishes."""
    sizes = tuple(int(n) for n in sizes)
    for c in co_factors:
        if not 0 <= c.left < len(sizes) - 1:
            raise DegreeMismatchError(f"co-class factor index out of range: {c.label()}")
        if c.degree < sizes[c.left] + sizes[c.left + 1]:
            raise DegreeMismatchError(f"co-class factor {c.label()} is below its rank")
    eulers = [
        {mp: euler_class(tangent_char(surface, mp), spec) for mp in multipartitions(surface, n)}
        for n in sizes
    ]
    s1, s2 = spec.s1, spec.s2
    measure: Measure = {}
    for mps in product(*eulers):
        co_value = 1
        for c in co_factors:
            mp1, mp2 = mps[c.left], mps[c.left + 1]
            char = co_class(surface, mp1, mp2, c.bundle)
            if not char.is_effective():
                raise DishonestClassError(f"co-class factor {c.label()} at ({mp1.to_text()}, "
                                          f"{mp2.to_text()}) has a negative multiplicity")
            if c.degree > mp1.total + mp2.total:
                co_value = 0
                break
            for (a, b), mult in char.terms():
                co_value *= (a * s1 + b * s2) ** mult
            if not co_value:
                break
        if co_value:
            # co / prod (n_i / d_i) = co * prod d_i / prod n_i, one gcd
            num, den = co_value, 1
            for euler, mp in zip(eulers, mps):
                e = euler[mp]
                num *= e.denominator
                den *= e.numerator
            measure[mps] = Fraction(num, den)
    return measure


def virtual_measure(surface: ToricSurface, sizes: Sequence[int], spec: WeightSpec) -> Measure:
    """{chain steps: 1 / e(T^vir)} over the nested chains of the given sizes.

    A chain listed twice adds its weight twice, as a sum over the list
    would.  A chain whose virtual tangent character carries net weight
    zero aborts with the chain identified."""
    measure: Measure = {}
    for chain in nested_chains(surface, tuple(int(n) for n in sizes)):
        vchar = virtual_tangent_char(surface, chain)
        try:
            denom = euler_class(vchar, spec)
        except ZeroWeightError as exc:
            raise ZeroWeightError(f"chain {chain.to_text()}: {exc}") from None
        measure[chain.steps] = measure.get(chain.steps, 0) + 1 / denom
    return measure


def integrate_ambient_batch(
    surface: ToricSurface,
    sizes: Sequence[int],
    insertions: Sequence[Insertion] | Integrand,
    spec: WeightSpec,
    co_factors: Sequence[CoFactor] = (),
) -> list[Fraction]:
    """Ambient localization sum over products of Hilbert schemes.

    Every insertion is integrated against the common co-class factors in
    one `_localize` pass over `ambient_measure`.  The degree condition
    (insertion + co degrees == complex dimension) is checked per insertion,
    before the measure is built, by `Integrand.of`: so an `Integrand`
    checked for this factor count and degree is not checked again, and
    any other sequence is wrapped in a fresh one.
    """
    sizes = tuple(int(n) for n in sizes)
    degree = 2 * sum(sizes) - sum(c.degree for c in co_factors)
    integrand = Integrand.of(insertions, len(sizes), degree)
    measure = ambient_measure(surface, sizes, spec, co_factors)
    return _localize(surface, integrand, spec, measure)


def integrate_virtual_batch(
    surface: ToricSurface,
    sizes: Sequence[int],
    insertions: Sequence[Insertion] | Integrand,
    spec: WeightSpec,
) -> list[Fraction]:
    """Virtual localization sum over nested chains, each weighted by 1 / e(T^vir).

    Insertion degree must equal the virtual dimension n_1 + n_k, checked
    by `Integrand.of` before the measure is built, as the ambient sum
    does.  A chain whose virtual tangent character carries net weight
    zero aborts with the chain identified.
    """
    sizes = tuple(int(n) for n in sizes)
    integrand = Integrand.of(insertions, len(sizes), sizes[0] + sizes[-1])
    return _localize(surface, integrand, spec, virtual_measure(surface, sizes, spec))


# --------------------------------------------------------------------------
# Hirzebruch-Riemann-Roch check (convention pinning)
# --------------------------------------------------------------------------


def hrr_chi(surface: ToricSurface, bundle: EqLineBundle, spec: WeightSpec) -> Fraction:
    """chi(L) = int_S ch(L) td(S) at one spec, by the localization kernel.

    S^[1] = S, so the degree-2 part c1(L)^2/2 + c1(L) c1(T)/2 +
    (c1(T)^2 + c2(T))/12 of ch(L) td(S) is integrated over S^[1], with
    c1(L) read from L^[1] = L by `taut_char` and c(T) by `tangent_char`:
    the value reads the characters, not the chart weights, so it pins the
    chart substitution and the tautological character too.
    """
    line = ChernFactor(0, bundle, 1)
    tangent = ChernFactor(0, None, 1)
    monomials = [(line, line), (line, tangent), (tangent, tangent), (ChernFactor(0, None, 2),)]
    insertions = [Insertion(factors) for factors in monomials]
    l2, lt, t2, c2 = integrate_ambient_batch(surface, (1,), insertions, spec)
    return l2 / 2 + lt / 2 + (t2 + c2) / 12


def k_theory_chi(surface: ToricSurface, bundle: EqLineBundle) -> tuple[LaurentPoly, LaurentPoly]:
    """The K-theoretic localization sum sum_p t^{mu_p} / D_p of chi(L), as
    Laurent polynomials (N, D) with N / D that sum: D_p = (1 - t^{-w1})
    (1 - t^{-w2}) over the tangent weights of chart p, D = prod_p D_p and
    N = sum_p t^{mu_p} prod_{q != p} D_q.  For an effective L, N equals D
    times the character of H^0(L) exactly (Brion's lattice-point formula)."""
    one = LaurentPoly.one()
    dens = [(one - LaurentPoly.monomial(-a1, -b1)) * (one - LaurentPoly.monomial(-a2, -b2))
            for (a1, b1), (a2, b2) in surface.charts]
    num = LaurentPoly.zero()
    for p, mu in enumerate(bundle.weights):
        num = num + reduce(mul, dens[:p] + dens[p + 1:], LaurentPoly.monomial(*mu))
    return num, reduce(mul, dens)


# --------------------------------------------------------------------------
# spec sampling and consistency
# --------------------------------------------------------------------------

#: samples are drawn in [SPEC_LOW, SPEC_HIGH] with gcd(s1, s2) = 1, so a
#: nonzero exponent (a, b) with |a|, |b| < SPEC_LOW can never pair to zero
SPEC_LOW = 1009
SPEC_HIGH = 999_983


def draw_spec(rng: random.Random) -> WeightSpec:
    while True:
        s1 = rng.randint(SPEC_LOW, SPEC_HIGH)
        s2 = rng.randint(SPEC_LOW, SPEC_HIGH)
        if s1 != s2 and math.gcd(s1, s2) == 1:
            return WeightSpec(s1, s2)


def sample_specs(seed: int, count: int) -> tuple[WeightSpec, ...]:
    """Deterministic distinct generic specs from a seeded generator."""
    rng = random.Random(seed)
    # a dict as an ordered set: a spec drawn again keeps its first place
    specs: dict[WeightSpec, None] = {}
    while len(specs) < count:
        specs[draw_spec(rng)] = None
    return tuple(specs)

