"""Exception types shared across the package.

The split matters for the command line driver, which maps precondition
violations and convergence failures to distinct exit codes.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """Input data violates a stated hypothesis (bad config, wrong sign, ...)."""


class UnsupportedOperationError(RuntimeError):
    """The object lacks the data needed for the requested operation."""


class NoBracketError(RuntimeError):
    """No connection to the target exists, as for a well without a decaying tail."""


class ConvergenceError(RuntimeError):
    """An iterative procedure stopped without reaching its tolerance."""
