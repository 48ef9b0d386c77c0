"""Partitions, diagram containment, box characters and fixed-point enumeration.

Torus-fixed points of S^[n] on a toric surface are assignments of one
partition per fixed point of S (``MultiPartition``); fixed points of the
nested Hilbert scheme are chains of such assignments with pointwise
diagram containment (``NestedChain``).

Nesting direction, pinned once and inherited everywhere: a larger
subscheme corresponds to a larger diagram and a smaller ideal, so a chain
with sizes n_1 >= ... >= n_k has diagrams shrinking along the chain.

Box convention, pinned once and inherited everywhere:
``Q_lambda = sum_{i >= 0} sum_{0 <= j < lambda_{i+1}} u1^i u2^j``
(u1 indexes the part, u2 the column inside the part).
"""

from __future__ import annotations

from functools import lru_cache

from .characters import LaurentPoly
from .toric import ToricSurface
from .value import Value, _set


class Partition(Value):
    """Weakly decreasing tuple of positive integers; () is the empty partition.

    ``size`` and the hash are computed once at construction: partitions key
    every character cache, so both are read far more often than built.
    Equality and hash depend on ``parts`` alone.
    """

    __slots__ = ("parts", "size")
    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        for i, part in enumerate(parts):
            if part <= 0:
                raise ValueError(f"parts must be positive, got {parts}")
            if i and parts[i - 1] < part:
                raise ValueError(f"parts must weakly decrease, got {parts}")
        self._init(parts)
        _set(self, "size", sum(parts))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for part in self.parts:
            for j in range(part):
                cols[j] += 1
        return Partition(tuple(cols))

    def boxes(self):
        """Boxes (i, j): i the part index, j < parts[i]."""
        for i, part in enumerate(self.parts):
            for j in range(part):
                yield (i, j)

    def to_text(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __repr__(self) -> str:
        return f"Partition({self.to_text()})"


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first: the
    subpartitions of size n of the n x n box."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return subpartitions(Partition((n,) * n), n)


@lru_cache(maxsize=None)
def contains(lam: Partition, mu: Partition) -> bool:
    """True iff the diagram of mu fits inside the diagram of lam."""
    if len(mu.parts) > len(lam.parts):
        return False
    return all(m <= l for l, m in zip(lam.parts, mu.parts))


@lru_cache(maxsize=None)
def subpartitions(lam: Partition, m: int) -> tuple[Partition, ...]:
    """All mu contained in lam with |mu| = m, deterministic order."""

    def gen(parts: tuple[int, ...], remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        if not parts:
            return
        head = min(parts[0], cap, remaining)
        for first in range(head, 0, -1):
            for rest in gen(parts[1:], remaining - first, first):
                yield (first,) + rest
        # mu may stop before lam does, covered by first reaching 0 -> remaining>0 fails

    return tuple(Partition(p) for p in gen(lam.parts, m, lam.size))


@lru_cache(maxsize=None)
def box_character(lam: Partition) -> LaurentPoly:
    """Character of O/I_lambda on the chart: one unit monomial per box."""
    return LaurentPoly({(i, j): 1 for i, j in lam.boxes()})


class MultiPartition(Value):
    """One partition per fixed point of a toric surface, in chart order.

    ``total`` and the hash are computed once at construction, as for
    ``Partition``; equality and hash depend on ``parts`` alone.
    """

    __slots__ = ("parts", "total")
    _fields = ("parts",)

    def __init__(self, parts: tuple[Partition, ...]):
        self._init(parts)
        _set(self, "total", sum(p.size for p in parts))

    def to_text(self) -> str:
        return "[" + ",".join(p.to_text() for p in self.parts) + "]"

    def __repr__(self) -> str:
        return f"MultiPartition({self.to_text()})"


def _fill_slots(bounds: tuple[Partition | None, ...], n: int):
    """Every multipartition of total n with one partition per slot, the one in
    slot s inside bounds[s], or any partition if bounds[s] is None.

    Slot by slot, a slot's size runs from the largest it can take down, and
    for each size the slot's partitions come in the order of
    `partitions_of` (an unbounded slot, so that cache is shared across
    sizes) or of `subpartitions`; the last slot takes what is left.
    """
    last = len(bounds) - 1

    def gen(slot: int, remaining: int):
        lam = bounds[slot]
        if slot == last:
            if lam is None or remaining <= lam.size:
                rest = partitions_of(remaining) if lam is None else subpartitions(lam, remaining)
                for head in rest:
                    yield (head,)
            return
        for k in range(remaining if lam is None else min(lam.size, remaining), -1, -1):
            for head in partitions_of(k) if lam is None else subpartitions(lam, k):
                for tail in gen(slot + 1, remaining - k):
                    yield (head,) + tail

    return (MultiPartition(t) for t in gen(0, n))


@lru_cache(maxsize=None)
def multipartitions(surface: ToricSurface, n: int) -> tuple[MultiPartition, ...]:
    """All fixed points of S^[n]: assignments of total size n, deterministic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_fill_slots((None,) * surface.euler_number, n))


def euler_product_coefficient(e: int, n: int) -> int:
    """Coefficient of q^n in prod_{m>=1} (1-q^m)^(-e), by series arithmetic.

    Goettsche's count of the fixed points of S^[n] for e = e(S), and an
    oracle independent of the enumeration: multiply out the geometric
    series (1 + q^m + q^2m + ...) e times per m, truncated at degree n.
    """
    series = [1] + [0] * n
    for m in range(1, n + 1):
        for _ in range(e):
            # multiply by 1/(1 - q^m)
            for k in range(m, n + 1):
                series[k] += series[k - m]
    return series[n]


def mp_contains(big: MultiPartition, small: MultiPartition) -> bool:
    """Pointwise diagram containment (small's diagrams inside big's)."""
    return all(map(contains, big.parts, small.parts))


class NestedChain(Value):
    """Fixed point of a nested Hilbert scheme: pointwise shrinking diagrams."""

    __slots__ = ("steps",)
    _fields = ("steps",)

    def __init__(self, steps: tuple[MultiPartition, ...]):
        for a, b in zip(steps, steps[1:]):
            if len(a.parts) != len(b.parts):
                raise ValueError("chain steps indexed by different surfaces")
            if not mp_contains(a, b):
                raise ValueError(f"chain violates containment: {a} !> {b}")
        self._init(steps)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(mp.total for mp in self.steps)

    def to_text(self) -> str:
        return "[" + ",".join(mp.to_text() for mp in self.steps) + "]"

    def __repr__(self) -> str:
        return f"NestedChain({self.to_text()})"


@lru_cache(maxsize=None)
def nested_chains(surface: ToricSurface, sizes: tuple[int, ...]) -> tuple[NestedChain, ...]:
    """All fixed points of S^[n_1,...,n_k]; sizes must weakly decrease."""
    if not sizes:
        raise ValueError("need at least one size")
    if any(n < 0 for n in sizes):
        raise ValueError(f"sizes must be nonnegative, got {sizes}")
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must weakly decrease, got {sizes}")

    def build(prefix: tuple[MultiPartition, ...], level: int):
        if level == len(sizes):
            yield NestedChain(prefix)
            return
        source = (
            multipartitions(surface, sizes[0])
            if level == 0
            else _fill_slots(prefix[-1].parts, sizes[level])
        )
        for mp in source:
            yield from build(prefix + (mp,), level + 1)

    return tuple(build((), 0))
