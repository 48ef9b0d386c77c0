"""Exact sparse Laurent-polynomial arithmetic in two torus variables.

A ``LaurentPoly`` is the universal carrier of equivariant characters of
the two-dimensional torus: a finite map from exponent pairs ``(a, b)`` in
Z x Z to nonzero integer multiplicities.  Coefficients are plain Python
integers, so multiplicities never overflow.  Values are immutable after
construction and safe to share between workers; iteration is always in
sorted exponent order so downstream sums are reproducible bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

Exponent = Tuple[int, int]
TermSource = Union[dict[Exponent, int], Iterable[Tuple[Exponent, int]]]


class LaurentPoly:
    """Sparse integer Laurent polynomial in (t1, t2), canonical form."""

    __slots__ = ("_terms", "_key", "_hash")

    def __init__(self, terms: TermSource = ()):
        data: dict[Exponent, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, coeff in items:
            if not coeff:
                continue
            key = (int(exp[0]), int(exp[1]))
            new = data.get(key, 0) + int(coeff)
            if new:
                data[key] = new
            else:
                del data[key]
        self._terms = data
        self._key: tuple | None = None
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a: int, b: int) -> "LaurentPoly":
        return cls({(a, b): 1})

    @classmethod
    def _wrap(cls, data: dict[Exponent, int]) -> "LaurentPoly":
        """Take ownership of a dict already in canonical form (int exponent
        pairs, no zero coefficient) without re-validating it."""
        out = cls.__new__(cls)
        out._terms = data
        out._key = None
        out._hash = None
        return out

    # -- canonical access --------------------------------------------------

    def terms(self) -> tuple[tuple[Exponent, int], ...]:
        """Terms sorted lexicographically by exponent pair."""
        key = self._key
        if key is None:
            key = tuple(sorted(self._terms.items()))
            self._key = key
        return key

    def coefficient(self, exp: Exponent) -> int:
        return self._terms.get((exp[0], exp[1]), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        data = dict(big)
        for exp, coeff in small.items():
            new = data.get(exp, 0) + coeff
            if new:
                data[exp] = new
            else:
                del data[exp]
        return LaurentPoly._wrap(data)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data: dict[Exponent, int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                new = data.get(key, 0) + c1 * c2
                if new:
                    data[key] = new
                elif key in data:
                    del data[key]
        return LaurentPoly._wrap(data)

    # -- character operations ----------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution t -> t^{-1}: every exponent pair is negated."""
        return LaurentPoly({(-a, -b): c for (a, b), c in self._terms.items()})

    def is_effective(self) -> bool:
        """True iff no multiplicity is negative: the character of an honest
        representation.  Canonical form holds no zero coefficient, so this
        is also the test that every multiplicity is positive."""
        return all(c > 0 for c in self._terms.values())

    def rank_eval(self) -> int:
        """Virtual rank: evaluation at t1 = t2 = 1, i.e. the coefficient sum."""
        return sum(self._terms.values())

    def substitute(self, img1: Exponent, img2: Exponent) -> "LaurentPoly":
        """Monomial substitution u1 -> t^img1, u2 -> t^img2.

        Each term u1^a u2^b maps to t^(a*img1 + b*img2); coefficients of
        colliding images are collected canonically.
        """
        p1, q1 = img1
        p2, q2 = img2
        data: dict[Exponent, int] = {}
        for (a, b), c in self._terms.items():
            key = (a * p1 + b * p2, a * q1 + b * q2)
            new = data.get(key, 0) + c
            if new:
                data[key] = new
            elif key in data:
                del data[key]
        return LaurentPoly._wrap(data)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.terms())
            self._hash = h
        return h

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: `c*t1^a*t2^b` joined by ` + `, sorted by (a, b)."""
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*t1^{a}*t2^{b}" for (a, b), c in self.terms())

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"

