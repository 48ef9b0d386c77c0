"""Symbolic intersection theory in a truncated graded polynomial ring.

Elements are polynomials in named generators of positive degree,
truncated above the ring's total degree N.  Coefficients are plain `int`s:
generators and integer scalars build every element of the identity
checks, and `int` arithmetic is exact.  A `Fraction` enters only through
a rational scalar; mixed `int`/`Fraction` arithmetic stays exact, and
1 == Fraction(1), so tables compare by value either way.  Identity
checks run over generic bundles whose Chern components are free
generators, so a polynomial identity here is an identity for all bundles;
no randomization is needed on the symbolic side.

Conventions encoded once: c_0 = 1 and c_{j<0} = 0 in `FormalBundle.chern`,
which the determinant builder reads; binomials with negative upper index follow the generalized
convention x(x-1)...(x-k+1)/k!.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .errors import TruncationOverflowError
from .series import binomial
from .value import Value, _set

# a monomial is a sorted tuple of (generator index, positive exponent)
Monomial = tuple[tuple[int, int], ...]
Scalar = Union[int, Fraction]


class FormalRing:
    """Graded ring with named generators and a hard degree truncation."""

    def __init__(self, truncation: int):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        self.truncation = truncation
        self._names: list[str] = []
        self._index: dict[str, int] = {}

    def add_generator(self, name: str, degree: int) -> "Element":
        if degree <= 0:
            raise ValueError("generator degrees must be positive")
        if name in self._index:
            raise ValueError(f"generator {name!r} already exists")
        idx = len(self._names)
        self._names.append(name)
        self._index[name] = idx
        if degree > self.truncation:
            return self.zero()
        return Element(self, {degree: {((idx, 1),): 1}})

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return self.scalar(1)

    def scalar(self, value: Scalar) -> "Element":
        value = _exact(value)
        if value == 0:
            return self.zero()
        return Element(self, {0: {(): value}})

    def monomial_text(self, mono: Monomial) -> str:
        if not mono:
            return "1"
        pieces = []
        for idx, exp in mono:
            name = self._names[idx]
            pieces.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(pieces)


class Element:
    """Graded element: per-degree coefficient tables, truncated above N."""

    __slots__ = ("ring", "table")

    def __init__(self, ring: FormalRing, table: Mapping[int, Mapping[Monomial, Scalar]]):
        self.ring = ring
        clean: dict[int, dict[Monomial, Scalar]] = {}
        for degree, monos in table.items():
            if degree > ring.truncation:
                continue
            kept = {m: c for m, c in monos.items() if c}
            if kept:
                clean[degree] = kept
        self.table = clean

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Element | None":
        if isinstance(other, Element):
            if other.ring is not self.ring:
                raise ValueError("elements belong to different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other) -> "Element":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        table = {d: dict(m) for d, m in self.table.items()}
        for degree, monos in other.table.items():
            dst = table.setdefault(degree, {})
            for mono, coeff in monos.items():
                new = dst.get(mono, 0) + coeff
                if new:
                    dst[mono] = new
                elif mono in dst:
                    del dst[mono]
        return Element(self.ring, table)

    __radd__ = __add__

    def __neg__(self) -> "Element":
        return Element(
            self.ring,
            {d: {m: -c for m, c in monos.items()} for d, monos in self.table.items()},
        )

    def __sub__(self, other) -> "Element":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Element":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        limit = self.ring.truncation
        table: dict[int, dict[Monomial, Scalar]] = {}
        for d1, monos1 in self.table.items():
            for d2, monos2 in other.table.items():
                degree = d1 + d2
                if degree > limit:
                    continue
                dst = table.setdefault(degree, {})
                for m1, c1 in monos1.items():
                    for m2, c2 in monos2.items():
                        mono = _merge_monomials(m1, m2)
                        new = dst.get(mono, 0) + c1 * c2
                        if new:
                            dst[mono] = new
                        elif mono in dst:
                            del dst[mono]
        return Element(self.ring, table)

    __rmul__ = __mul__

    # -- structure ---------------------------------------------------------

    def degree_part(self, degree: int) -> "Element":
        if degree in self.table:
            return Element(self.ring, {degree: self.table[degree]})
        return self.ring.zero()

    def constant_term(self) -> Scalar:
        return self.table.get(0, {}).get((), 0)

    def is_zero(self) -> bool:
        return not self.table

    def inverse(self) -> "Element":
        """Inverse of a unit element (constant term 1) via the geometric series."""
        if self.constant_term() != 1:
            raise ValueError("only unit elements (constant term 1) are inverted")
        positive = self - self.ring.one()
        out = self.ring.one()
        power = self.ring.one()
        sign = 1
        for _step in range(self.ring.truncation):
            power = power * positive
            if power.is_zero():
                break
            sign = -sign
            out = out + sign * power
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring is other.ring and self.table == other.table

    # -- printing ------------------------------------------------------------

    def to_text(self) -> str:
        if not self.table:
            return "0"
        chunks = []
        for degree in sorted(self.table):
            for mono in sorted(self.table[degree]):
                coeff = self.table[degree][mono]
                body = self.ring.monomial_text(mono)
                if body == "1":
                    chunks.append(str(coeff))
                elif coeff == 1:
                    chunks.append(body)
                elif coeff == -1:
                    chunks.append(f"-{body}")
                else:
                    chunks.append(f"{coeff}*{body}")
        out = " + ".join(chunks)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Element({self.to_text()})"


def _exact(value: Scalar) -> Scalar:
    """`value` itself if it is an `int` or a `Fraction`; anything else, a
    float above all, would enter the ring as a long inexact fraction."""
    if type(value) is int or type(value) is Fraction:
        return value
    raise TypeError(f"symbolic values are int or Fraction, got {type(value).__name__}")


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for idx, exp in m2:
        merged[idx] = merged.get(idx, 0) + exp
    return tuple(sorted(merged.items()))


class FormalBundle(Value):
    """A K-theory class: integer rank plus a unit total Chern element.

    Unhashable, as its `Element` is."""

    __slots__ = ("ring", "rank", "total_chern", "name", "_inverse")
    _fields = ("ring", "rank", "total_chern", "name")
    __hash__ = None

    def __init__(self, ring: FormalRing, rank: int, total_chern: Element, name: str = ""):
        if total_chern.constant_term() != 1:
            raise ValueError("total Chern class must have constant term 1")
        # no `_init`: an Element has no hash
        for field, value in zip(self._fields, (ring, rank, total_chern, name)):
            _set(self, field, value)
        _set(self, "_inverse", None)

    @property
    def inverse_chern(self) -> Element:
        """c(E)^-1, the total Segre class, inverted at most once per bundle."""
        if self._inverse is None:
            _set(self, "_inverse", self.total_chern.inverse())
        return self._inverse

    def chern(self, j: int) -> Element:
        if j == 0:
            return self.ring.one()
        if j < 0:
            return self.ring.zero()
        return self.total_chern.degree_part(j)


def generic_bundle(ring: FormalRing, name: str, rank: int) -> FormalBundle:
    """Bundle whose Chern components are fresh independent generators.

    Honest bundles (rank >= 0) stop at c_rank; virtual classes get
    generators through the ring truncation.
    """
    top = min(rank, ring.truncation) if rank >= 0 else ring.truncation
    total = ring.one()
    for j in range(1, top + 1):
        total = total + ring.add_generator(f"c{j}({name})", j)
    return FormalBundle(ring, rank, total, name)


def whitney_difference(a: FormalBundle, b: FormalBundle) -> FormalBundle:
    """c(A - B) = c(A) / c(B) by truncated series inversion."""
    if a.ring is not b.ring:
        raise ValueError("bundles belong to different rings")
    return FormalBundle(a.ring, a.rank - b.rank, a.total_chern * b.inverse_chern,
                        f"{a.name}-{b.name}")


def segre(e: FormalBundle) -> list[Element]:
    """Segre classes s_0..s_N with s(E) = 1/c(E)."""
    inv = e.inverse_chern
    return [inv.degree_part(j) for j in range(e.ring.truncation + 1)]


def thom_porteous(a: int, b: int, c: FormalBundle) -> Element:
    """Delta^a_b(c) = det(c_{b+j-i})_{1<=i,j<=a}, an element of degree a*b.

    c_0 = 1 and c_{<0} = 0; the full expansion needs degrees up to a*b,
    so a*b above the ring truncation is an overflow.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    if b < 0:
        raise ValueError("b must be >= 0")
    ring = c.ring
    if a * b > ring.truncation:
        raise TruncationOverflowError(
            f"Delta^{a}_{b} has degree {a * b} > truncation {ring.truncation}"
        )
    return _determinant([[c.chern(b + j - i) for j in range(a)] for i in range(a)], ring)


def _determinant(matrix: list[list[Element]], ring: FormalRing) -> Element:
    n = len(matrix)
    if n == 0:
        return ring.one()
    if n == 1:
        return matrix[0][0]
    # cofactor expansion along the first row
    out = ring.zero()
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * _determinant(minor, ring)
        out = out + term if j % 2 == 0 else out - term
    return out


def twist_by_line(f: FormalBundle, m: Element, k: int) -> Element:
    """c_k(F (x) M) = sum_j binom(rank - j, k - j) c_j(F) m^{k-j}.

    m must be a pure degree-1 element (c_1 of the twisting line bundle);
    binomials with negative upper index use the generalized convention.
    """
    if not m.is_zero() and set(m.table) != {1}:
        raise ValueError("twist class must be homogeneous of degree 1")
    ring = f.ring
    powers = [ring.one()]
    for _ in range(k):
        powers.append(powers[-1] * m)
    out = ring.zero()
    for j in range(k + 1):
        coeff = binomial(f.rank - j, k - j)
        if coeff:
            out = out + coeff * f.chern(j) * powers[k - j]
    return out


def proj_pushforward(zeta_poly: Mapping[int, Element], e0: FormalBundle) -> Element:
    """Pushforward down P(E_0): q_*(zeta^k alpha) = s_{k - r0 + 1}(E_0) alpha."""
    if e0.rank < 1:
        raise ValueError("projective bundle needs positive rank")
    s = segre(e0)
    ring = e0.ring
    out = ring.zero()
    for k, alpha in zeta_poly.items():
        idx = k - e0.rank + 1
        if idx < 0:
            continue
        if idx > ring.truncation:
            raise TruncationOverflowError(f"Segre index {idx} exceeds truncation")
        out = out + s[idx] * alpha
    return out


def verify_higher_tp(r0: int, r1: int, i: int, truncation: int) -> bool:
    """Recompute the higher degeneracy-class identity for generic bundles.

    Pushforward route: q_*(zeta^i * sum_j c_j(E_1) zeta^{r1-j}) over P(E_0).
    Direct route: c_{r1-r0+1+i}(E_1 - E_0).  True iff the two elements are
    identical polynomials in the free Chern generators.
    """
    target = r1 - r0 + 1 + i
    if target > truncation:
        raise TruncationOverflowError(
            f"identity degree {target} does not fit truncation {truncation}"
        )
    # both routes are homogeneous of degree target, and no coefficient of
    # degree <= target reads a higher one, so the ring stops there
    ring = FormalRing(max(target, 0))
    e0 = generic_bundle(ring, "E0", r0)
    e1 = generic_bundle(ring, "E1", r1)
    zeta_poly = {i + r1 - j: e1.chern(j) for j in range(r1 + 1)}
    pushed = proj_pushforward(zeta_poly, e0)
    direct = whitney_difference(e1, e0).chern(target)
    return pushed == direct
