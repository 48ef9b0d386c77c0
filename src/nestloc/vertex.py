"""Equivariant K-theory characters built from the two-ideal chart vertex.

On a chart with box characters Q1, Q2 the vertex is

    V(Q1, Q2) = Q2 + bar(Q1)/(u1 u2) - Q2 bar(Q1) (1-u1)(1-u2)/(u1 u2),

the finite Laurent polynomial representing chi(O) - chi(I1, I2).  Global
classes are assembled by substituting chart variables into the global
torus and summing over fixed points, one chart term per fixed point, as
a tuple of terms; a global character is one dict those tuples are added
into.  Co-class and tangent chart terms are cached by (chart, twist
weight, partition pair), so a co-class miss is one lookup per chart;
tautological chart terms are cached by (chart, twist weight, local
character).

Chart-to-global substitution, pinned by the hrr checks and the tangent
oracle: u_k -> t^{-w_k} where (w_1, w_2) are the chart's tangent weights.
With this choice the diagonal vertex substitutes to the honest tangent
character of S^[n] (e.g. a single box at p contributes t^{w_1} + t^{w_2}),
and a line-bundle twist multiplies a chart contribution by the fiber
weight t^{mu_p}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .characters import Exponent, LaurentPoly
from .combinatorics import MultiPartition, NestedChain, Partition, box_character
from .toric import EqLineBundle, ToricSurface, bundle_by_label

_INV_U1U2 = LaurentPoly.monomial(-1, -1)
# (1-u1)(1-u2)/(u1 u2), the chart Euler factor of the vertex
_EULER_FACTOR = LaurentPoly(
    {(-1, -1): 1, (0, -1): -1, (-1, 0): -1, (0, 0): 1}
)


@dataclass(frozen=True)
class GlobalCharacter:
    """A character in the global torus variables with its cached virtual rank."""

    value: LaurentPoly
    rank: int

    def __post_init__(self):
        if self.rank != self.value.rank_eval():
            raise ValueError("cached rank disagrees with rank_eval")


@lru_cache(maxsize=65536)
def vertex_V(q1: LaurentPoly, q2: LaurentPoly) -> LaurentPoly:
    """Chart vertex V(Q1, Q2); rank |lambda1| + |lambda2| for box characters."""
    q1bar = q1.bar()
    return q2 + q1bar * _INV_U1U2 - q2 * q1bar * _EULER_FACTOR


@lru_cache(maxsize=None)
def _chart_term(chart, mu, local: LaurentPoly) -> tuple[tuple[Exponent, int], ...]:
    """Terms of t^mu times the chart-local character substituted into the global torus."""
    (w1, w2) = chart
    global_char = local.substitute((-w1[0], -w1[1]), (-w2[0], -w2[1]))
    return (LaurentPoly.monomial(*mu) * global_char).terms()


@lru_cache(maxsize=None)
def _pair_term(chart, mu, lam1: Partition, lam2: Partition) -> tuple[tuple[Exponent, int], ...]:
    """Terms of t^mu V(Q_lam1, Q_lam2) substituted into the global torus."""
    return _chart_term(chart, mu, vertex_V(box_character(lam1), box_character(lam2)))


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


def _check_indexing(surface: ToricSurface, *indexed) -> None:
    n = surface.euler_number
    for obj in indexed:
        size = len(obj.parts) if isinstance(obj, MultiPartition) else len(obj.weights)
        if size != n:
            raise ValueError(f"{obj!r} is not indexed by the fixed points of {surface.name}")


@lru_cache(maxsize=65536)
def co_class(
    surface: ToricSurface,
    mp1: MultiPartition,
    mp2: MultiPartition,
    bundle: EqLineBundle,
) -> GlobalCharacter:
    """Class of Rpi_* L - RHom_pi(I_1, I_2 (x) L) at the fixed point (mp1, mp2).

    For trivial L this differs from RHom_pi(I_1, I_2)[1] only by one
    weight-zero trivial summand, which changes no Chern class.  Rank is
    |mp1| + |mp2| independently of the twist.
    """
    _check_indexing(surface, mp1, mp2, bundle)
    value = _fold(map(_pair_term, surface.charts, bundle.weights, mp1.parts, mp2.parts))
    return GlobalCharacter(value, mp1.total + mp2.total)


@lru_cache(maxsize=65536)
def tangent_char(surface: ToricSurface, mp: MultiPartition) -> GlobalCharacter:
    """Tangent character of S^[n] at the fixed point mp; rank 2|mp|."""
    _check_indexing(surface, mp)
    value = _fold(
        _pair_term(chart, (0, 0), lam, lam) for chart, lam in zip(surface.charts, mp.parts)
    )
    return GlobalCharacter(value, 2 * mp.total)


def taut_char(surface: ToricSurface, bundle: EqLineBundle, mp: MultiPartition) -> GlobalCharacter:
    """Character of the tautological bundle L^[n] at mp; effective, rank |mp|."""
    _check_indexing(surface, mp, bundle)
    value = _fold(
        _chart_term(chart, mu, box_character(lam))
        for chart, lam, mu in zip(surface.charts, mp.parts, bundle.weights)
    )
    return GlobalCharacter(value, mp.total)


@lru_cache(maxsize=65536)
def virtual_tangent_char(surface: ToricSurface, chain: NestedChain) -> GlobalCharacter:
    """Virtual tangent character of the nested Hilbert scheme at a chain.

    sum_i T(mp_i) - sum_{i<k} [chi(O) - chi(I_i, I_{i+1})]; the virtual
    rank is n_1 + n_k.
    """
    total = LaurentPoly.zero()
    for mp in chain.steps:
        total = total + tangent_char(surface, mp).value
    trivial = bundle_by_label(surface, "O")
    for mp_a, mp_b in zip(chain.steps, chain.steps[1:]):
        total = total - co_class(surface, mp_a, mp_b, trivial).value
    sizes = chain.sizes
    return GlobalCharacter(total, sizes[0] + sizes[-1])
