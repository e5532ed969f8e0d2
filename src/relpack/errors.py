"""Exception types raised by the packing construction and its verifiers."""


class RelpackError(Exception):
    """Base class for all errors raised by this package."""


class RadiusAtOrAboveBound(RelpackError, ValueError):
    """Requested ball radius meets or exceeds the packing obstruction.

    For a ball packed relative to the Clifford torus the squared radius must
    stay strictly below 2/(n+1); at or above that value no embedding of the
    kind constructed here exists.
    """

    def __init__(self, n, r):
        self.n = n
        self.r = r
        super().__init__(
            "radius at or above Biran–Cornea bound: "
            f"r={r!r} requires r**2 < 2/(n+1) = {2.0 / (n + 1)!r}"
        )


class InvalidEpsilon(RelpackError, ValueError):
    """Collar width is non-positive or too large for the chosen radius."""


class ScheduleInfeasible(RelpackError, ArithmeticError):
    """No admissible curve-shape schedule exists for these parameters.

    Signals that the collar width is too small for the fixed corner margins,
    so the monotone width/height/exponent profiles cannot be fitted.
    """


class QuadratureNonConvergent(RelpackError, ArithmeticError):
    """A quadrature refinement ladder failed to stabilize."""

    def __init__(self, message, areas=None, failed=None):
        super().__init__(message)
        # a whole batch's results, and which of them did not stabilize
        self.areas, self.failed = areas, failed


class NotInImage(RelpackError, ValueError):
    """Target rectangle point lies outside the image of the open disc."""


class NotInDomain(RelpackError, ValueError):
    """Point lies outside the open toric chart domain."""


class OnAxes(RelpackError, ValueError):
    """Complex point has a vanishing coordinate, where the chart angle is undefined."""


class BranchBoundary(RelpackError, ValueError):
    """Complex point maps to the angular branch cut of the chart inverse."""
