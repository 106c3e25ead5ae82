"""Exception types shared across the package."""


class TetranacciError(Exception):
    """Base class for all package errors."""


class ZeroT2Error(TetranacciError):
    """Next-nearest-neighbor coupling is zero (t2, or t^2 - delta^2 for the
    Kitaev chain), or so small that dividing by it overflows, or the Kitaev
    chain's effective chain has an entry past the doubles; coefficient map
    undefined."""


class PreconditionError(TetranacciError):
    """Operation precondition violated: an index outside its range or
    guard, a root class the operation does not apply to, or a degenerate
    eigenvalue, for which the single-vector closed form is inapplicable."""
