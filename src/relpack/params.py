"""Packing parameters: ball radius, torus level, and collar width.

A ball of radius ``r`` in R^{2n} is packed relative to the real slice into
the product of ``n`` unit-area rectangles, one factor per complex coordinate
of the target.  The torus sits at action level ``c = 1/(n+1)`` in each
factor, and each disc factor is mapped onto a thin neighborhood of the
horizontal midline of width controlled by the collar parameter ``epsilon``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidEpsilon, RadiusAtOrAboveBound

__all__ = ["PackingParams", "make_params", "max_epsilon"]


@dataclass(frozen=True)
class PackingParams:
    """Validated parameter bundle for one packing instance.

    Attributes
    ----------
    n : int
        Number of complex coordinates (the ball lives in R^{2n}).
    r : float
        Ball radius, with ``r**2 < 2/(n+1)`` strictly.
    c : float
        Common action level of the torus in every factor, ``1/(n+1)``.
    epsilon : float
        Collar half-band width added around the disc-area profile; positive
        and at most ``(c - r**2/2)/n``.
    """

    n: int
    r: float
    c: float
    epsilon: float

    @property
    def area_max(self) -> float:
        """Area ``pi*r**2`` of the full disc factor, supremum of level areas."""
        return math.pi * self.r**2


def max_epsilon(n: int, r: float) -> float:
    """Largest admissible collar width for the given ``n`` and ``r``.

    This is the value at which the per-factor area budget is exhausted:
    ``n*c + r**2/2 + n*epsilon == 1`` holds exactly for the result.
    """
    c = 1.0 / (n + 1)
    return (c - r**2 / 2.0) / n


def make_params(n: int, r: float, epsilon: float | None = None) -> PackingParams:
    """Validate and freeze a parameter set.

    Parameters
    ----------
    n : int
        Number of complex coordinates, at least 1.
    r : float
        Ball radius; must satisfy ``0 < r`` and ``r**2 < 2/(n+1)``.
    epsilon : float, optional
        Collar width.  Defaults to the maximal value ``(c - r**2/2)/n``,
        which saturates the area budget.

    Returns
    -------
    PackingParams

    Raises
    ------
    RadiusAtOrAboveBound
        If ``r**2 >= 2/(n+1)``.
    InvalidEpsilon
        If ``epsilon <= 0`` or ``epsilon`` exceeds its maximal value.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"r must be a finite positive float, got {r!r}")
    if r**2 >= 2.0 / (n + 1):
        raise RadiusAtOrAboveBound(n, r)

    c = 1.0 / (n + 1)
    eps_max = max_epsilon(n, r)
    if epsilon is None:
        epsilon = eps_max
    else:
        epsilon = float(epsilon)
        if not math.isfinite(epsilon) or epsilon <= 0.0:
            raise InvalidEpsilon(f"epsilon must be positive, got {epsilon!r}")
        if epsilon > eps_max:
            raise InvalidEpsilon(
                f"epsilon={epsilon!r} exceeds the area budget; "
                f"maximum for n={n}, r={r!r} is {eps_max!r}"
            )
    return PackingParams(n=n, r=r, c=c, epsilon=epsilon)
