"""Exception hierarchy shared across the engine.

Mathematical failures (everything below ``MathError``) must never be
swallowed: the harness turns them into failed cases with a named
diagnostic, and the CLI maps them to exit code 1.
"""


class NestlocError(Exception):
    """Base class for all engine errors."""


class ConfigError(NestlocError):
    """Invalid scenario/CLI configuration; detected before any computation."""


class MathError(NestlocError):
    """A computation violated a mathematical precondition or identity."""

    #: short diagnostic name used in reports
    name = "MathError"


class ZeroWeightError(MathError):
    """A character meant to have an Euler class carries net weight zero.

    Raised instead of silently dropping the factor: a fixed point whose
    (virtual) normal character contains a trivial summand is not isolated
    and the localization sum is invalid.
    """

    name = "ZeroWeight"


class NonGenericSpecError(MathError):
    """A nonzero character exponent evaluated to 0 at the chosen spec."""

    name = "NonGenericSpec"


class DegreeMismatchError(MathError):
    """Integrand degree does not match the (virtual) dimension."""

    name = "DegreeMismatch"


class DishonestClassError(MathError):
    """A co-class has a negative multiplicity; every true one is honest."""

    name = "DishonestClass"


class TruncationOverflowError(MathError):
    """A symbolic computation needs degrees above the ring truncation."""

    name = "TruncationOverflow"

