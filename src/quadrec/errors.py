"""Typed errors with stable process exit codes.

The CLI maps each class to its exit_code; library callers catch the types.
"""


class QuadrecError(Exception):
    exit_code = 1


class UsageError(QuadrecError):
    """Bad parameters: malformed literals, non-prime p, non-squarefree d."""

    exit_code = 2


class MixedFieldError(UsageError, ValueError):
    """Elements from two different quadratic fields in one computation."""


class DegenerateInputError(QuadrecError):
    """A prime ideal where the requested quantity is undefined: degenerate
    for the tuple, ramified where unramified is required, non-unit input."""

    exit_code = 3


class FactorizationError(QuadrecError):
    """An unfactorable cofactor within the configured budget."""

    exit_code = 4


class ResourceLimitError(QuadrecError):
    """Iteration budget exceeded."""

    exit_code = 5


class CheckpointError(QuadrecError):
    """Checkpoint missing, corrupted, or from a different configuration."""

    exit_code = 6


class InvariantBreachError(QuadrecError):
    """A verification that must never fail did fail; always a bug report."""

    exit_code = 1
