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


def line_factor(coeffs: list[int], weight_value: int, multiplicity: int, degree: int) -> int:
    """Multiply the truncated series `coeffs`, of degree at most `degree`,
    in place by (1 + w tau)^m; return the degree of the product, capped at
    the order len(coeffs) - 1.

    m > 0 multiplies by (1 + w tau) m times, each from the degree reached
    so far down, so each step reads the old lower coefficient and skips
    the coefficients that are still zero; m < 0 divides by it |m| times,
    from degree 1 up through the order, which is exact in integers since
    the constant term of (1 + w tau) is 1."""
    order = len(coeffs) - 1
    if multiplicity > 0:
        for _ in range(multiplicity):
            if degree < order:
                degree += 1
            for k in range(degree, 0, -1):
                coeffs[k] += weight_value * coeffs[k - 1]
        return degree
    for _ in range(-multiplicity):
        for k in range(1, order + 1):
            coeffs[k] -= weight_value * coeffs[k - 1]
    return order
