"""Combinatorial fixed-point data of smooth projective toric surfaces.

A surface is a list of torus-fixed charts, each carrying an ordered pair
of tangent weights in Z^2; smoothness means every pair is a lattice basis
(determinant +-1).  Equivariant line bundles assign one character per
fixed point.

Conventions (pinned by hrr-check: :func:`nestloc.integrals.hrr_chi`
integrates ch(L) td(S) through the localization kernel, so it reads the
tangent and tautological characters built from these weights, and
:func:`nestloc.integrals.k_theory_chi` reads the weights directly, as a
Laurent-polynomial identity against the section lattice):

* tangent weights are the geometric point-movement weights of the torus
  action on T_p S;
* line-bundle weights are the induced fiber weights; for O(d) on P^2 the
  fiber weight at the chart where the section x_i^d survives is -d times
  that chart's homogeneous-coordinate weight.

Only ``p2`` and ``p1xp1`` are provided; surfaces are closed data, not
user-extensible configuration.  Each entry of :data:`SURFACES` carries
everything the engine and the scenarios know about its surface, so adding
a surface means adding one entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from .value import Value, _set

Weight = tuple[int, int]


class ToricSurface(Value):
    """Fixed points with tangent weight pairs, identified by name, plus the
    surface's line bundles and the data its scenarios check against.

    Equality compares the name and the charts only.  The hash is computed
    once, at construction, from the integer charts alone, so it is the same
    in every process whatever PYTHONHASHSEED is; surfaces key every
    character cache.  Its bundle labels are parsed once, at construction,
    into `trivial`, `battery_bundles` and `twist_bundles`.  As `chi` and
    `sections` are lambdas, it pickles as its name, and unpickles as its
    `SURFACES` entry itself, so every cache keyed by it still hits.
    """

    _fields = ("name", "charts", "fibers", "battery", "twists", "hrr_degrees", "chi", "sections")
    __slots__ = _fields + ("trivial", "battery_bundles", "twist_bundles")
    _compare = ("name", "charts")

    def __init__(
        self,
        name: str,
        charts: tuple[tuple[Weight, Weight], ...],
        #: fiber weights of O(e_k) at each chart, one row per degree coordinate k;
        #: their number is the arity of a line-bundle degree
        fibers: tuple[tuple[Weight, ...], ...] = (),
        #: line bundles whose tautological classes generate the insertions
        battery: tuple[str, ...] = (),
        #: nontrivial twists of the twisted-vanishing scenario
        twists: tuple[str, ...] = (),
        #: degrees the hrr-check scenario pins
        hrr_degrees: tuple[tuple[int, ...], ...] = (),
        #: chi(O(degrees)), counted by monomials
        chi: Callable[..., Fraction] | None = None,
        #: weights of the monomial sections of O(degrees) for degrees >= 0
        sections: Callable[..., Iterable[Weight]] | None = None,
    ):
        if not charts:
            raise ValueError("a toric surface needs at least one fixed point")
        for w1, w2 in charts:
            det = w1[0] * w2[1] - w1[1] * w2[0]
            if det not in (1, -1):
                raise ValueError(f"tangent weights {w1}, {w2} are not a lattice basis")
        self._init(name, charts, fibers, battery, twists, hrr_degrees, chi, sections)
        _set(self, "_hash", hash(charts))
        _set(self, "trivial", line_bundle(self, *(0 for _ in fibers)))
        _set(self, "battery_bundles", tuple(bundle_by_label(self, label) for label in battery))
        _set(self, "twist_bundles", tuple(bundle_by_label(self, label) for label in twists))

    @property
    def euler_number(self) -> int:
        return len(self.charts)

    def __repr__(self) -> str:
        return f"ToricSurface({self.name!r}, {self.euler_number} fixed points)"

    def __reduce__(self):
        return _surface, (self.name,)


class EqLineBundle(Value):
    """Equivariant line bundle: one character per fixed point.

    As for ``ToricSurface``, the hash is computed once from the integer
    weights alone; equality still compares the label too.
    """

    __slots__ = ("label", "weights")
    _fields = __slots__

    def __init__(self, label: str, weights: tuple[Weight, ...]):
        self._init(label, weights)
        _set(self, "_hash", hash(weights))

    def __repr__(self) -> str:
        return f"EqLineBundle({self.label!r})"


@lru_cache(maxsize=None)
def p2() -> ToricSurface:
    """P^2 with the action [x0 : t1 x1 : t2 x2]; three fixed points."""
    return ToricSurface(
        name="p2",
        charts=(
            ((1, 0), (0, 1)),
            ((-1, 0), (-1, 1)),
            ((0, -1), (1, -1)),
        ),
        fibers=(((0, 0), (-1, 0), (0, -1)),),
        battery=("O", "O(1)", "O(2)"),
        twists=("O(1)", "O(2)"),
        hrr_degrees=tuple((d,) for d in range(4)),
        chi=lambda d: Fraction((d + 1) * (d + 2), 2),
        # x0^a x1^b x2^c with a + b + c = d has weight (-b, -c)
        sections=lambda d: ((-b, -c) for b in range(d + 1) for c in range(d + 1 - b)),
    )


@lru_cache(maxsize=None)
def p1xp1() -> ToricSurface:
    """P^1 x P^1 with the product action; four fixed points 00, 01, 10, 11."""
    return ToricSurface(
        name="p1xp1",
        charts=(
            ((1, 0), (0, 1)),
            ((1, 0), (0, -1)),
            ((-1, 0), (0, 1)),
            ((-1, 0), (0, -1)),
        ),
        fibers=(((0, 0), (0, 0), (-1, 0), (-1, 0)), ((0, 0), (0, -1), (0, 0), (0, -1))),
        battery=("O(1,0)", "O(0,1)"),
        twists=("O(1,0)", "O(0,1)"),
        hrr_degrees=tuple((a, b) for a in range(3) for b in range(3)),
        chi=lambda a, b: Fraction((a + 1) * (b + 1)),
        sections=lambda a, b: ((-i, -j) for i in range(a + 1) for j in range(b + 1)),
    )


def line_bundle(surface: ToricSurface, *degrees: int) -> EqLineBundle:
    """O(d) on P^2 or O(a,b) on P^1 x P^1 with its fiber weights.

    The weight at a chart p is linear in the degrees,
    sum_k degrees[k] * surface.fibers[k][p].  For P^2 this reads off the
    d-dilated standard simplex (for P^1 x P^1 the (a,b) box) in the
    chart-adapted basis; the overall sign is the one pinned by hrr_check.
    """
    if len(degrees) != len(surface.fibers):
        raise ValueError(f"{surface.name} line bundles take {len(surface.fibers)} degree(s)")
    weights = tuple(
        (sum(d * w[0] for d, w in zip(degrees, row)), sum(d * w[1] for d, w in zip(degrees, row)))
        for row in zip(*surface.fibers)
    )
    label = f"O({','.join(map(str, degrees))})" if any(degrees) else "O"
    return EqLineBundle(label, weights)


def bundle_by_label(surface: ToricSurface, label: str) -> EqLineBundle:
    """Parse labels like ``O``, ``O(2)``, ``O(1,0)`` for the given surface."""
    label = label.strip()
    if label == "O":
        return surface.trivial
    if label.startswith("O(") and label.endswith(")"):
        try:
            degrees = tuple(int(part) for part in label[2:-1].split(","))
        except ValueError:
            raise ValueError(f"malformed bundle label {label!r}") from None
        return line_bundle(surface, *degrees)
    raise ValueError(f"malformed bundle label {label!r}")


# built after `line_bundle`, which every surface calls for its trivial bundle
SURFACES = {surface.name: surface for surface in (p2(), p1xp1())}


def _surface(name: str) -> ToricSurface:
    return SURFACES[name]
