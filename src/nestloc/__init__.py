"""nestloc: exact equivariant localization checks for nested Hilbert schemes.

An exact-arithmetic engine verifying, at desk scale, Chern-class
identities of degeneracy-locus virtual cycles on products of Hilbert
schemes of points over toric surfaces: higher-Chern-class vanishing,
the pushforward determinant identity, and the k-step product formula,
plus a symbolic truncated-ring calculus for the determinantal side.
"""

__version__ = "0.1.0"
