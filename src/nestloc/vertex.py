"""Equivariant K-theory characters built from the two-ideal chart vertex.

On a chart with box characters Q1, Q2 the vertex is

    V(Q1, Q2) = Q2 + bar(Q1)/(u1 u2) - Q2 bar(Q1) (1-u1)(1-u2)/(u1 u2),

the finite Laurent polynomial representing chi(O) - chi(I1, I2).  Every
global character is one Ext class E_L(mp1, mp2) = chi(L) - chi(I_1, I_2 (x) L),
the sum over fixed points p of t^{mu_p} V(Q_lam1, Q_lam2), mu_p the fiber
weight of L at p: the co-class is E_L(mp1, mp2), the tangent character at
mp is E_O(mp, mp), and L^[n] at mp is E_L(empty, mp), since V(0, Q) = Q.
One kernel folds the chart terms, cached by (chart, mu, partition pair),
into one dict and checks the rank |mp1| + |mp2|.

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
from .toric import EqLineBundle, ToricSurface, bundle_by_label

_INV_U1U2 = LaurentPoly.monomial(-1, -1)
# (1-u1)(1-u2)/(u1 u2), the chart Euler factor of the vertex
_EULER_FACTOR = LaurentPoly({(-1, -1): 1, (0, -1): -1, (-1, 0): -1, (0, 0): 1})
_EMPTY = Partition(())


@lru_cache(maxsize=65536)
def vertex_V(q1: LaurentPoly, q2: LaurentPoly) -> LaurentPoly:
    """Chart vertex V(Q1, Q2); rank |lambda1| + |lambda2| for box characters."""
    q1bar = q1.bar()
    return q2 + q1bar * _INV_U1U2 - q2 * q1bar * _EULER_FACTOR


@lru_cache(maxsize=None)
def _pair_term(chart, mu, lam1: Partition, lam2: Partition) -> tuple[tuple[Exponent, int], ...]:
    """Terms of t^mu V(Q_lam1, Q_lam2) substituted into the global torus."""
    (w1, w2) = chart
    local = vertex_V(box_character(lam1), box_character(lam2))
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


def _ext_class(surface: ToricSurface, lams1, lams2, weights) -> LaurentPoly:
    """sum_p t^{mu_p} V(Q_lams1[p], Q_lams2[p]) over the fixed points p.

    Raises ValueError when a tuple is not indexed by the fixed points, or
    when the folded rank is not |lams1| + |lams2|."""
    for indexed in (lams1, lams2, weights):
        if len(indexed) != surface.euler_number:
            raise ValueError(f"{indexed!r} is not indexed by the fixed points of {surface.name}")
    value = _fold(map(_pair_term, surface.charts, weights, lams1, lams2))
    rank = sum(lam.size for lam in lams1) + sum(lam.size for lam in lams2)
    if value.rank_eval() != rank:
        raise ValueError(f"folded rank {value.rank_eval()} is not |lams1| + |lams2| = {rank}")
    return value


@lru_cache(maxsize=65536)
def co_class(
    surface: ToricSurface, mp1: MultiPartition, mp2: MultiPartition, bundle: EqLineBundle
) -> LaurentPoly:
    """Class of Rpi_* L - RHom_pi(I_1, I_2 (x) L) at the fixed point (mp1, mp2).

    For trivial L this differs from RHom_pi(I_1, I_2)[1] only by one
    weight-zero trivial summand, which changes no Chern class.  Rank is
    |mp1| + |mp2| independently of the twist.
    """
    return _ext_class(surface, mp1.parts, mp2.parts, bundle.weights)


@lru_cache(maxsize=65536)
def tangent_char(surface: ToricSurface, mp: MultiPartition) -> LaurentPoly:
    """Tangent character E_O(mp, mp) of S^[n] at the fixed point mp; rank 2|mp|."""
    return _ext_class(surface, mp.parts, mp.parts, ((0, 0),) * surface.euler_number)


def taut_char(surface: ToricSurface, bundle: EqLineBundle, mp: MultiPartition) -> LaurentPoly:
    """Tautological bundle L^[n] at mp, as E_L(empty, mp); effective, rank |mp|."""
    return _ext_class(surface, (_EMPTY,) * surface.euler_number, mp.parts, bundle.weights)


@lru_cache(maxsize=65536)
def virtual_tangent_char(surface: ToricSurface, chain: NestedChain) -> LaurentPoly:
    """Virtual tangent character of the nested Hilbert scheme at a chain.

    sum_i T(mp_i) - sum_{i<k} [chi(O) - chi(I_i, I_{i+1})]; the virtual
    rank is n_1 + n_k.
    """
    total = LaurentPoly.zero()
    for mp in chain.steps:
        total = total + tangent_char(surface, mp)
    trivial = bundle_by_label(surface, "O")
    for mp_a, mp_b in zip(chain.steps, chain.steps[1:]):
        total = total - co_class(surface, mp_a, mp_b, trivial)
    rank = chain.sizes[0] + chain.sizes[-1]
    if total.rank_eval() != rank:
        raise ValueError(f"virtual rank {total.rank_eval()} is not n_1 + n_k = {rank}")
    return total
