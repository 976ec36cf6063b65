"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class SpecError(ToolkitError):
    """A distribution specification violates one of its parameter constraints."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class DomainError(ToolkitError):
    """An integrand produced NaN or a non-finite value at a sampled point."""


class NonConvergence(ToolkitError):
    """Adaptive refinement exhausted its depth or panel budget before the tolerance."""


class Divergence(ToolkitError):
    """An improper integral appears not to converge."""


class GridError(ToolkitError, ValueError):
    """An evaluation grid or point is unusable: too few points, log spacing
    from zero, or not above the convention origin.  Also a ValueError."""


class BeyondSupport(ToolkitError):
    """Evaluation was requested where the survival function is identically zero."""


class UnsupportedCapability(ToolkitError):
    """The distribution does not provide the capability required by the operation."""


class NonPositiveMrl(ToolkitError):
    """A mean residual life function must stay strictly positive."""


class OriginSingularity(ToolkitError):
    """The mean residual life is discontinuous or degenerate at the origin."""


class UnknownCase(ToolkitError):
    """Requested corpus case id does not exist."""
