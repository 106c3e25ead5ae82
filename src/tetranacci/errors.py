"""Exception types shared across the package."""


class TetranacciError(Exception):
    """Base class for all package errors."""


class IndexRangeError(TetranacciError):
    """Requested index range is empty or inverted."""


class DegenerateRootsError(TetranacciError):
    """Plane-wave form inapplicable: characteristic roots are degenerate."""


class ClassMismatchError(TetranacciError):
    """Operation called with the wrong root-degeneracy class."""


class RangeGuardError(TetranacciError):
    """Exact polynomial index exceeds the growth guard."""


class ZeroT2Error(TetranacciError):
    """Next-nearest-neighbor hopping is zero; coefficient map undefined."""


class PreconditionError(TetranacciError):
    """Operation precondition violated."""


class RemovableSingularityError(TetranacciError):
    """sin(k d) vanishes; quantization ratio needs the crossing path."""


class DegenerateModeError(TetranacciError):
    """Eigenvalue is degenerate; single-vector closed form inapplicable."""


class DegenerateCouplingError(TetranacciError):
    """Kitaev couplings satisfy t^2 = delta^2; effective map undefined."""


class SingularBoundaryError(TetranacciError):
    """Boundary 2x2 system is singular at this energy."""


class QuadratureError(TetranacciError):
    """Adaptive quadrature failed to converge."""
