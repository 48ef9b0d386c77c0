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


def line_factor(coeffs: list[int], weight_value: int, multiplicity: int, degree: int,
                floor: int = 0) -> int:
    """Multiply the truncated series `coeffs`, of degree at most `degree`,
    in place by (1 + w tau)^m, m >= 0, keeping exact the coefficients of
    degree >= `floor` of the product; return the degree of the product,
    capped at the order len(coeffs) - 1.

    Each of the m steps runs from the degree reached so far down, so it
    reads the old lower coefficient and skips the coefficients that are
    still zero.  A step with k steps after it stops at degree floor - k
    (its exclusive `stop` is floor - k - 1): each later step moves a
    coefficient up one degree at most, so one below that band never
    reaches `floor`.  Coefficients below `floor` are left inexact, and
    the constant term stays 1.  A negative m raises ValueError: every series is of an
    honest character."""
    if multiplicity < 0:
        raise ValueError(f"negative multiplicity {multiplicity}")
    order = len(coeffs) - 1
    for stop in range(floor - multiplicity, floor):
        if degree < order:
            degree += 1
        for k in range(degree, stop if stop > 0 else 0, -1):
            coeffs[k] += weight_value * coeffs[k - 1]
    return degree
