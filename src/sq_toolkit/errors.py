"""Exception types shared across the toolkit.

All of these derive from ValueError so callers who do not care about the
fine-grained class can catch the usual thing.
"""


class ToolkitError(ValueError):
    """Base class for domain errors raised by this package."""


class DimensionMismatch(ToolkitError):
    """Operands live on spaces of incompatible dimensions."""


class NotBipartite(ToolkitError):
    """A two-factor state was required."""


class NotDegenerate(ToolkitError):
    """The addressed weight block is not degenerate to working tolerance."""


class StateTooLarge(ToolkitError):
    """The requested state has more factors, or a larger joint space, than
    the size policy allows."""
