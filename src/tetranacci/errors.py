"""Exception types shared across the package."""


class TetranacciError(Exception):
    """Base class for all package errors."""


class ZeroT2Error(TetranacciError):
    """Next-nearest-neighbor coupling is zero (t2, or t^2 - delta^2 for the
    Kitaev chain), or so small that dividing by it overflows; coefficient
    map undefined."""


class PreconditionError(TetranacciError):
    """Operation precondition violated: an index outside its range or
    guard, or a root class the operation does not apply to."""


class DegenerateModeError(TetranacciError):
    """Eigenvalue is degenerate; single-vector closed form inapplicable."""


class SingularBoundaryError(TetranacciError):
    """Boundary 2x2 system is singular at this energy."""


class QuadratureError(TetranacciError):
    """Adaptive quadrature failed to converge."""
