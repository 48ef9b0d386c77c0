"""Equivariant K-theory characters built from the two-ideal chart vertex.

On a chart with box characters Q1, Q2 the vertex is

    V(Q1, Q2) = Q2 + bar(Q1)/(u1 u2) - Q2 bar(Q1) (1-u1)(1-u2)/(u1 u2),

the finite Laurent polynomial representing chi(O) - chi(I1, I2).  Every
global character is one Ext class E_L(mp1, mp2) = chi(L) - chi(I_1, I_2 (x) L),
the sum over fixed points p of t^{mu_p} V(Q_lam1, Q_lam2), mu_p the fiber
weight of L at p: the co-class is E_L(mp1, mp2), the tangent character at
mp is E_O(mp, mp), and L^[n] at mp is E_L(empty, mp), since V(0, Q) = Q.
One kernel folds the chart terms, cached by (chart, mu, parts pair) in
ints, into one dict and checks the rank |mp1| + |mp2| its caller gives.

Chart-to-global substitution, pinned by the hrr checks and the tangent
oracle: u_k -> t^{-w_k} where (w_1, w_2) are the chart's tangent weights.
With this choice the diagonal vertex substitutes to the honest tangent
character of S^[n] (e.g. a single box at p contributes t^{w_1} + t^{w_2}),
and a line-bundle twist multiplies a chart contribution by the fiber
weight t^{mu_p}.
"""

from __future__ import annotations

from functools import lru_cache

from .characters import Exponent, LaurentPoly
from .combinatorics import MultiPartition, NestedChain, Partition, box_character
from .toric import EqLineBundle, ToricSurface

_INV_U1U2 = LaurentPoly.monomial(-1, -1)
# (1-u1)(1-u2)/(u1 u2), the chart Euler factor of the vertex
_EULER_FACTOR = LaurentPoly({(-1, -1): 1, (0, -1): -1, (-1, 0): -1, (0, 0): 1})


@lru_cache(maxsize=65536)
def vertex_V(q1: LaurentPoly, q2: LaurentPoly) -> LaurentPoly:
    """Chart vertex V(Q1, Q2); rank |lambda1| + |lambda2| for box characters."""
    q1bar = q1.bar()
    return q2 + q1bar * _INV_U1U2 - q2 * q1bar * _EULER_FACTOR


@lru_cache(maxsize=None)
def _pair_term(
    chart, mu, parts1: tuple[int, ...], parts2: tuple[int, ...]
) -> tuple[tuple[Exponent, int], ...]:
    """Terms of t^mu V(Q_lam1, Q_lam2) substituted into the global torus,
    lam_i = Partition(parts_i).  The key holds ints and tuples only, so it
    hashes in C; the partitions are built on a miss alone."""
    (w1, w2) = chart
    local = vertex_V(box_character(Partition(parts1)), box_character(Partition(parts2)))
    global_char = local.substitute((-w1[0], -w1[1]), (-w2[0], -w2[1]))
    return (LaurentPoly.monomial(*mu) * global_char).terms()


def _fold(chart_terms) -> LaurentPoly:
    """Sum of chart-term tuples in one dict; a key whose coefficient
    reaches 0 is deleted, so the dict is canonical as it stands."""
    total: dict[Exponent, int] = {}
    for terms in chart_terms:
        for exp, coeff in terms:
            new = total.get(exp, 0) + coeff
            if new:
                total[exp] = new
            else:
                del total[exp]
    return LaurentPoly._wrap(total)


def _ext_kernel(surface: ToricSurface, shape1, shape2, weights, rank: int) -> LaurentPoly:
    """sum_p t^{mu_p} V(Q_lam1[p], Q_lam2[p]) over the fixed points p, the
    partitions given by their parts (`MultiPartition.shape`).

    Raises ValueError when a tuple is not indexed by the fixed points, or
    when the folded rank is not `rank`, which the caller gives as
    |lams1| + |lams2|."""
    charts = surface.charts
    points = len(charts)
    for indexed in (shape1, shape2, weights):
        if len(indexed) != points:
            raise ValueError(f"{indexed!r} is not indexed by the fixed points of {surface.name}")
    value = _fold(map(_pair_term, charts, weights, shape1, shape2))
    folded = value.rank_eval()
    if folded != rank:
        raise ValueError(f"folded rank {folded} is not |lams1| + |lams2| = {rank}")
    return value


def ext_class(
    surface: ToricSurface, mp1: MultiPartition, mp2: MultiPartition, bundle: EqLineBundle
) -> LaurentPoly:
    """Class of Rpi_* L - RHom_pi(I_1, I_2 (x) L) at the fixed point (mp1, mp2).

    For trivial L this differs from RHom_pi(I_1, I_2)[1] only by one
    weight-zero trivial summand, which changes no Chern class.  Rank is
    |mp1| + |mp2| independently of the twist.  Uncached: a caller that
    reads each pair once (the serre-duality suite) reads this fold.
    """
    return _ext_kernel(surface, mp1.shape, mp2.shape, bundle.weights, mp1.total + mp2.total)


@lru_cache(maxsize=65536)
def co_class(
    surface: ToricSurface, mp1: MultiPartition, mp2: MultiPartition, bundle: EqLineBundle
) -> LaurentPoly:
    """`ext_class`, cached: the ambient measures of a group read a pair once,
    and chains read theirs again, as do later groups.  It calls `ext_class`
    by its module name, so a patched fold reaches both readers."""
    return ext_class(surface, mp1, mp2, bundle)


@lru_cache(maxsize=65536)
def tangent_char(surface: ToricSurface, mp: MultiPartition) -> LaurentPoly:
    """Tangent character E_O(mp, mp) of S^[n] at the fixed point mp; rank 2|mp|."""
    return _ext_kernel(surface, mp.shape, mp.shape, ((0, 0),) * surface.euler_number, 2 * mp.total)


@lru_cache(maxsize=65536)
def taut_char(surface: ToricSurface, bundle: EqLineBundle, mp: MultiPartition) -> LaurentPoly:
    """Tautological bundle L^[n] at mp, as E_L(empty, mp); effective, rank |mp|.
    Cached: the sums read each (bundle, fixed point) again at every spec."""
    return _ext_kernel(surface, ((),) * surface.euler_number, mp.shape, bundle.weights, mp.total)


@lru_cache(maxsize=65536)
def virtual_tangent_char(surface: ToricSurface, chain: NestedChain) -> LaurentPoly:
    """Virtual tangent character of the nested Hilbert scheme at a chain.

    sum_i T(mp_i) - sum_{i<k} [chi(O) - chi(I_i, I_{i+1})]; the virtual
    rank is n_1 + n_k.
    """
    total = LaurentPoly.zero()
    for mp in chain.steps:
        total = total + tangent_char(surface, mp)
    for mp_a, mp_b in zip(chain.steps, chain.steps[1:]):
        total = total - co_class(surface, mp_a, mp_b, surface.trivial)
    rank = chain.sizes[0] + chain.sizes[-1]
    if total.rank_eval() != rank:
        raise ValueError(f"virtual rank {total.rank_eval()} is not n_1 + n_k = {rank}")
    return total
