"""Exception hierarchy shared across the package."""


class CavityError(Exception):
    """Base class for all package-specific failures."""


class DomainError(CavityError, ValueError):
    """A parameter value lies outside the valid domain."""


class DegreeError(CavityError, ValueError):
    """A derivative order or polynomial degree is out of range."""


class InterpolationError(CavityError):
    """An interpolation system is singular or left a large residual."""


class SingularityError(CavityError):
    """Evaluation at a point where the geometry map is rank deficient."""


class InvalidDeformationError(CavityError):
    """A deformation makes the Jacobian determinant vanish or flip sign."""


class AssemblyError(CavityError):
    """Quadrature hit a singular Jacobian or matrices failed validation."""


class SolverError(CavityError):
    """An eigensolve or factorization failed after retries."""


class IterationLimitError(SolverError):
    """An iterative solver hit its iteration cap without converging."""


class DegeneracyError(CavityError):
    """A bordered system is singular, typically at an eigenvalue crossing."""


class NewtonFailure(CavityError):
    """Newton correction diverged or hit its iteration cap."""


class TrackingFailure(CavityError):
    """Step-size control underflowed; carries the last accepted state."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class DegenerateDataError(CavityError, ValueError):
    """Observation data has zero total variance or too few samples."""


class GridSizeError(CavityError, ValueError):
    """A requested collocation grid exceeds the node-count guard."""


class ConfigError(CavityError, ValueError):
    """A run configuration is malformed, has unknown keys, or bad values."""
