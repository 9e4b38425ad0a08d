"""Exception types shared across the package."""


class SepoptError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SepoptError):
    """A vector's length does not match the body's ambient dimension."""


class ZeroDirection(SepoptError):
    """A direction vector is (numerically) zero where a nonzero one is required."""


class NoConvergence(SepoptError):
    """An iterative routine exhausted its budget before reaching tolerance.

    ``last_point`` carries the best iterate when one exists, letting callers
    salvage a stopping decision (e.g. detect that a search region has shrunk
    below its size floor even though its center is beyond float precision).
    """

    def __init__(self, message, iterations=None, last_point=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_point = last_point


class DegenerateInstance(SepoptError):
    """Random instance generation failed after bounded retries."""


class NotInterior(SepoptError):
    """A point is not strictly interior to the search region.

    ``index`` identifies the violated constraint: a cut index, or -1 for the
    bounding ball.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class EmptyInterior(SepoptError):
    """The search region has (numerically) empty interior."""


class CannotDrop(SepoptError):
    """Constraint dropping was requested but no cut may be removed."""


class DegenerateCut(SepoptError):
    """The correction cut is undefined because p - k_c is parallel to c."""


class DegenerateUpdate(SepoptError):
    """The heuristic update is undefined (query point coincides with the maximizer)."""


class CenterOriginFailure(SepoptError):
    """The direction-search center collapsed onto the origin and retries failed."""


class InstanceFormatError(SepoptError):
    """An instance file does not follow the documented JSON schema."""
