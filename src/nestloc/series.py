"""Degree-truncated univariate series with exact coefficients.

The carrier of total Chern classes after weight specialization: a list
of exact integer coefficients of degrees 0..order, no floating point
anywhere.
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


def line_factor(coeffs: list[int], weight_value: int, multiplicity: int) -> None:
    """Multiply the truncated series `coeffs` in place by (1 + w tau)^m.

    m > 0 multiplies by (1 + w tau) m times, from the top degree down so
    each step reads the old lower coefficient; m < 0 divides by it |m|
    times, from degree 1 up, which is exact in integers since the
    constant term of (1 + w tau) is 1."""
    order = len(coeffs) - 1
    if multiplicity > 0:
        for _ in range(multiplicity):
            for k in range(order, 0, -1):
                coeffs[k] += weight_value * coeffs[k - 1]
    else:
        for _ in range(-multiplicity):
            for k in range(1, order + 1):
                coeffs[k] -= weight_value * coeffs[k - 1]
