"""Degree-truncated univariate series with exact coefficients.

The carrier of total Chern classes after weight specialization: degrees
0..order, exact integer coefficients, no floating point anywhere.
"""

from __future__ import annotations

from math import factorial


def binomial(x: int, k: int) -> int:
    """Generalized binomial x(x-1)...(x-k+1)/k!, valid for negative x."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= x - i
    return num // factorial(k)


class TruncatedSeries:
    """1 + c_1 tau + ... + c_order tau^order, truncated above `order`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1] + [0] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, j: int):
        return self.coeffs[j] if 0 <= j <= self.order else 0

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (order + 1)
        for i in range(order + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(order + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return TruncatedSeries(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        return "TruncatedSeries([" + ", ".join(str(c) for c in self.coeffs) + "])"


def line_factor(weight_value, multiplicity: int, order: int) -> TruncatedSeries:
    """(1 + w tau)^m truncated; m may be negative (generalized binomials)."""
    coeffs = [1]
    power = 1
    for j in range(1, order + 1):
        power *= weight_value
        coeffs.append(binomial(multiplicity, j) * power)
    return TruncatedSeries(coeffs)
