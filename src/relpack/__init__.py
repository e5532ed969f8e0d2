"""Relative symplectic packing of a ball, with numerical verification.

Packs the open ball of radius ``r`` (with ``r**2 < 2/(n+1)``) into the
affine ball model of complex projective space so that the real slice of
the ball lands exactly on the Clifford torus.  The construction composes
an explicit area-preserving disc map per complex factor (`sigma`, built on
a nested level-curve family) with the action-angle chart (`chart_j`); the
`verify` module checks every claimed invariant numerically and the
``relpack`` CLI drives suites, figure-data export, and point evaluation.
"""

from .chart import (
    chart_j,
    chart_j_inv,
    chart_symplectic_check,
    clifford_distance,
    domain_slack,
    full_embedding,
    moment_map,
)
from .curves import area_factor, shape_schedule
from .discmap import (
    enclosed_area,
    level_curve_point,
    phi,
    sigma,
    sigma_inv,
    sigma_jacobian,
)
from .errors import (
    BranchBoundary,
    InvalidEpsilon,
    NotInDomain,
    NotInImage,
    OnAxes,
    QuadratureNonConvergent,
    RadiusAtOrAboveBound,
    RelpackError,
    ScheduleInfeasible,
)
from .params import PackingParams, make_params, max_epsilon
from .verify import (
    CheckRecord,
    MapSet,
    SampleSpec,
    VerificationReport,
    run_all,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "PackingParams",
    "make_params",
    "max_epsilon",
    "shape_schedule",
    "area_factor",
    "sigma",
    "sigma_inv",
    "sigma_jacobian",
    "level_curve_point",
    "enclosed_area",
    "phi",
    "domain_slack",
    "moment_map",
    "chart_j",
    "chart_j_inv",
    "full_embedding",
    "clifford_distance",
    "chart_symplectic_check",
    "SampleSpec",
    "MapSet",
    "CheckRecord",
    "VerificationReport",
    "sample",
    "run_all",
    "RelpackError",
    "RadiusAtOrAboveBound",
    "InvalidEpsilon",
    "ScheduleInfeasible",
    "QuadratureNonConvergent",
    "NotInImage",
    "NotInDomain",
    "OnAxes",
    "BranchBoundary",
    "__version__",
]
