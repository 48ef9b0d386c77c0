"""nestloc: exact equivariant localization checks for nested Hilbert schemes.

An exact-arithmetic engine verifying, at desk scale, Chern-class
identities of degeneracy-locus virtual cycles on products of Hilbert
schemes of points over toric surfaces: higher-Chern-class vanishing,
the pushforward determinant identity, and the k-step product formula,
plus a symbolic truncated-ring calculus for the determinantal side.
"""

__version__ = "0.1.0"

from .characters import LaurentPoly
from .combinatorics import (
    MultiPartition,
    NestedChain,
    Partition,
    box_character,
    contains,
    multipartitions,
    nested_chains,
    partitions_of,
)
from .toric import EqLineBundle, ToricSurface, bundle_by_label, line_bundle, p1xp1, p2, surface_by_name
from .vertex import GlobalCharacter, co_class, tangent_char, taut_char, vertex_V, virtual_tangent_char
from .integrals import (
    CoFactor,
    Insertion,
    TangentFactor,
    TautFactor,
    WeightSpec,
    chern_series,
    consistency_run,
    euler_class,
    hrr_chi,
    insertion_basis,
    integrate_ambient_batch,
    integrate_virtual_batch,
    k_theory_chi_sum,
    sample_specs,
)
from .chern import (
    Element,
    FormalBundle,
    FormalRing,
    generic_bundle,
    proj_pushforward,
    segre,
    thom_porteous,
    twist_by_line,
    verify_higher_tp,
    whitney_difference,
    whitney_sum,
)
