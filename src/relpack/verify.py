"""Deterministic sampling and aggregation of the packing invariant checks.

Every numbered guarantee of the construction (determinant one, band bounds,
midline behavior, containment, injectivity, curve areas, chart
symplecticity, torus preimage, sharpness arithmetic) is evaluated here over
seeded sample pools and folded into a `VerificationReport`.  `run_all`
maps each pool once, and every check reads that shared evaluation.  All
aggregation uses max/min reductions only, so results are independent of
sample ordering and of how work is chunked across threads; reports are
bit-identical for a fixed seed.

The map under test is injectable (a `MapSet` passed to `run_all`), which
lets the test suite prove each check can fail by wiring in broken maps.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import discmap
from .chart import chart_j, chart_symplectic_check, domain_slack
from .errors import QuadratureNonConvergent
from .params import PackingParams, max_epsilon

__all__ = [
    "SampleSpec",
    "MapSet",
    "CheckRecord",
    "VerificationReport",
    "sample",
    "check_area_preservation",
    "check_containment",
    "check_midline",
    "check_band_margins",
    "check_round_trip",
    "check_curve_areas",
    "check_chart_symplectic",
    "check_lagrangian_preimage",
    "check_sharpness_identity",
    "run_all",
]

DEFAULT_TOLERANCES = {
    "area_preservation": 1e-6,
    "containment": 0.0,
    "midline": 1e-12,
    "band_margins": 0.0,
    "round_trip": 1e-9,
    "curve_areas": 1e-6,
    "chart_symplectic": 1e-6,
    "lagrangian_preimage": 1e-12,
    "sharpness_identity": 1e-15,
}

ROUND_TRIP_LIMIT = 30000  # main-pool factor points sent back through sigma_inv
CURVE_AREA_COUNT = 32  # areas on the geometric grid of `check_curve_areas`


@dataclass(frozen=True)
class SampleSpec:
    """One sampling request: strategy name, point count, and RNG seed."""

    strategy: str
    count: int
    seed: int


@dataclass(frozen=True)
class MapSet:
    """The disc-map callables a verification run exercises.

    Each has the `relpack.discmap` signature of its name.  ``sigma_jacobian``
    maps the main pool, ``sigma_inv`` its images back and ``sigma`` the
    diameter and midline pools; tests pass broken maps to show checks fail.
    """

    sigma: object
    sigma_inv: object
    sigma_jacobian: object


@dataclass
class CheckRecord:
    """Outcome of one check.

    ``worst_margin`` is the minimal slack encountered: the distance to
    failure, positive iff the check passed.  For tolerance-style checks it
    is ``tolerance - worst_error``; for strict inequalities it is the raw
    slack and the tolerance field is 0.
    """

    name: str
    passed: bool
    worst_margin: float
    tolerance: float
    samples_used: int
    worst_point: tuple | None = None


@dataclass
class VerificationReport:
    """Parameter echo, per-check records, and the overall verdict."""

    n: int
    r: float
    epsilon: float
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        """Serialize with stable key order and full-precision floats.

        Finite floats take their shortest round-trip form, which keeps every
        bit (at most 17 digits); others the ``NaN``/``Infinity`` of `json`.
        """

        def f(x):
            return json.dumps(float(x))

        lines = ["{"]
        lines.append(
            f'  "params": {{"n": {self.n}, "r": {f(self.r)}, '
            f'"epsilon": {f(self.epsilon)}, "seed": {self.seed}}},'
        )
        lines.append('  "checks": [')
        for i, c in enumerate(self.checks):
            comma = "," if i + 1 < len(self.checks) else ""
            lines.append(
                f'    {{"name": "{c.name}", '
                f'"passed": {"true" if c.passed else "false"}, '
                f'"worst_margin": {f(c.worst_margin)}, '
                f'"tolerance": {f(c.tolerance)}, '
                f'"samples": {c.samples_used}}}{comma}'
            )
        lines.append("  ],")
        lines.append(f'  "overall": {"true" if self.overall else "false"}')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def resolve_threads(threads=None) -> int:
    """Worker count, at most 64.

    An explicit ``threads`` wins, then a non-empty RELPACK_THREADS, then
    the number of cores this process may run on.
    """
    if threads is None:
        env = os.environ.get("RELPACK_THREADS", "").strip()
        if not env:
            threads = _cores()
        else:
            try:
                threads = int(env)
            except ValueError:
                raise ValueError(
                    f"RELPACK_THREADS must be an integer, got {env!r}") from None
    nt = int(threads)
    if nt < 1:
        raise ValueError("thread count must be >= 1")
    return min(nt, 64)


def _cores() -> int:
    """Cores this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _submit(ex, fn, arrays):
    """Queue ``fn`` on each `discmap` row block of ``arrays``; return its join.

    The returned function waits for the blocks and concatenates them.  With
    no executor ``ex`` the pass runs in the calling thread when joined.
    Block boundaries do not depend on the executor, and ``fn`` acts on
    each row alone, so the result is bitwise the same either way.
    """
    if ex is None:
        return lambda: discmap._blocked(fn, arrays)
    futures = [ex.submit(fn, *s) for s in discmap._slices(arrays)]
    return lambda: discmap._join([f.result() for f in futures])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _along_directions(rng, count, dim, radius):
    """``count`` points of R^dim at the radii ``radius()`` returns, along
    normalised Gaussian directions, which are drawn first."""
    x = rng.standard_normal((count, dim))
    nrm = np.linalg.norm(x, axis=1)
    nrm[nrm == 0.0] = 1.0
    return x * (radius() / nrm)[:, None]


def sample(spec: SampleSpec, params: PackingParams):
    """Draw a deterministic pool of ball points.

    Strategies
    ----------
    ``grid``
        Square lattice on the first disc factor (other factors zero),
        masked to the open disc.  May return fewer than ``count`` points.
    ``uniform-ball``
        Uniform on the open ball in R^{2n}.
    ``boundary-biased``
        Uniform directions with ``sum u_i`` between ``0.99 r**2`` and
        ``r**2 * (1 - 1e-6)``, log-uniform in the gap.
    ``midline``
        Ball points whose momenta are tiny but nonzero (log-uniform
        magnitudes in ``[1e-9, 1e-3] * r``, random signs), for sign checks
        across the midline.
    ``diameter-only``
        All momenta exactly zero, positions uniform in the radius-``r``
        ball of R^n.

    Returns
    -------
    ndarray, shape (count, 2n)
        Rows ``(q1, p1, ..., qn, pn)``, each strictly inside the ball.
    """
    if spec.count <= 0:
        raise ValueError("count must be positive")
    n, r, count = params.n, params.r, spec.count
    dim = 2 * n
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    if spec.strategy == "grid":
        side = max(2, int(np.ceil(np.sqrt(spec.count))))
        ax = np.linspace(-r, r, side)
        qq, pp = np.meshgrid(ax, ax)
        keep = (qq**2 + pp**2) < r**2 * (1.0 - 1e-9)
        out = np.zeros((int(keep.sum()), dim))
        out[:, 0] = qq[keep]
        out[:, 1] = pp[keep]
        return out

    def uniform(k, shave):
        # uniform in the radius r*(1 - shave) ball of R^k
        return _along_directions(
            rng, count, k, lambda: r * (1.0 - shave) * rng.random(count) ** (1.0 / k))

    if spec.strategy == "uniform-ball":
        return uniform(dim, 1e-9)

    if spec.strategy == "boundary-biased":
        return _along_directions(rng, count, dim, lambda: r * np.sqrt(
            1.0 - 10.0 ** rng.uniform(-6.0, -2.0, count)))

    if spec.strategy == "midline":
        q = uniform(n, 1e-4)
        mag = r * 10.0 ** rng.uniform(-9.0, -3.0, (count, n))
        sgn = rng.choice([-1.0, 1.0], size=(count, n))
        out = np.empty((count, dim))
        out[:, 0::2] = q
        out[:, 1::2] = sgn * mag
        return out

    if spec.strategy == "diameter-only":
        out = np.zeros((count, dim))
        out[:, 0::2] = uniform(n, 1e-9)
        return out

    raise ValueError(f"unknown sampling strategy {spec.strategy!r}")


# ---------------------------------------------------------------------------
# shared evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Evaluation:
    """Every pool of one run, passed through the maps once.

    ``pool`` is the main pool (uniform rows, then boundary-biased rows);
    one pass gives its product image ``images`` and the Jacobian
    determinant ``det`` at each factor point.  ``inverse`` holds
    ``sigma_inv`` of the first `ROUND_TRIP_LIMIT` factor images as rows.
    ``chart`` is the images of the first 1000 uniform and 200 boundary rows.
    """

    params: PackingParams
    pool: np.ndarray
    images: np.ndarray
    det: np.ndarray
    inverse: np.ndarray
    diam: np.ndarray
    diam_images: np.ndarray
    mid: np.ndarray
    mid_images: np.ndarray
    chart: np.ndarray


def _evaluate(params, uni, bnd, diam, mid, maps, nthreads):
    """Pass each pool through ``maps`` once and collect the results.

    Every pool is mapped as flat factor points.  The main pool's go
    through ``sigma_jacobian`` once, and their images back through
    ``sigma_inv``; ``sigma`` maps the diameter and midline pools.  Each
    block reduces its Jacobians to determinants, so no (N, 2, 2) array
    outlives its block.

    One executor of ``nthreads`` workers takes the Jacobian, diameter and
    midline blocks together, then the inverse blocks.  It is used only
    when the main pool spans more than one block: a single block gains
    nothing from a worker, whose own malloc arena would only add memory.
    """
    def forward(q, p):
        Q, P, J = maps.sigma_jacobian(q, p, params)
        return Q, P, J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]

    def stacked(fn):  # the two outputs of ``fn`` as the columns of rows
        return lambda a, b: np.column_stack(fn(a, b, params))

    def columns(a):
        fp = a.reshape(-1, 2)
        return [fp[:, 0], fp[:, 1]]

    k, m = len(uni), ROUND_TRIP_LIMIT
    pool = np.concatenate([uni, bnd], axis=0)
    threaded = nthreads > 1 and pool.size // 2 > discmap._BLOCK
    with ThreadPoolExecutor(nthreads) if threaded else nullcontext() as ex:
        main = _submit(ex, forward, columns(pool))
        aux = [_submit(ex, stacked(maps.sigma), columns(a)) for a in (diam, mid)]
        Q, P, det = main()
        inv = _submit(ex, stacked(maps.sigma_inv), [Q[:m], P[:m]])()
        diam_images, mid_images = (
            join().reshape(a.shape) for join, a in zip(aux, (diam, mid)))
    img = np.column_stack([Q, P]).reshape(pool.shape)
    return _Evaluation(
        params=params,
        pool=pool,
        images=img,
        det=det,
        inverse=inv,
        diam=diam,
        diam_images=diam_images,
        mid=mid,
        mid_images=mid_images,
        chart=np.concatenate([img[: min(1000, k)], img[k : k + 200]], axis=0),
    )


def _record(name, slack, tol, points=None, floor=0.0):
    """Reduce a check's slack array to its `CheckRecord`.

    The margin is the least slack, and the check passes when it exceeds
    ``floor``.  A tolerance check (error ``<= tol``) hands in ``tol - err``,
    whose least value is exactly ``tol - max(err)``.  ``points`` holds the
    sample behind each slack, in the same order.
    """
    slack = np.asarray(slack, dtype=float)
    i = int(np.argmin(slack))
    margin = float(slack[i])
    return CheckRecord(
        name=name,
        passed=margin > floor,
        worst_margin=margin,
        tolerance=tol,
        samples_used=slack.size,
        worst_point=None if points is None
        else tuple(float(v) for v in points[i]),
    )


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_area_preservation(ev, tol):
    """Determinant of the factor-map Jacobian within ``tol`` of 1."""
    return _record("area_preservation", tol - np.abs(ev.det - 1.0), tol,
                   ev.pool.reshape(-1, 2))


def check_containment(ev, tol):
    """Images inside the open box/simplex; margin is the least `domain_slack`.

    The check passes only if that slack strictly exceeds ``tol`` (0 is the
    open-domain requirement).
    """
    return _record("containment", domain_slack(ev.images), tol, ev.pool, tol)


def check_band_margins(ev, tol):
    """Two-sided band: ``|P_i - c| <= u_i/2 + epsilon`` for every factor."""
    u = ev.pool[:, 0::2] ** 2 + ev.pool[:, 1::2] ** 2
    halfband = u / 2.0 + ev.params.epsilon
    slack = np.min(halfband - np.abs(ev.images[:, 1::2] - ev.params.c), axis=1)
    return _record("band_margins", slack, tol, ev.pool, tol)


def check_midline(ev, tol):
    """Diameter points land on ``P = c``; the sign of ``P - c`` follows ``p``."""
    c = ev.params.c
    mfp = ev.mid.reshape(-1, 2)
    P_d = ev.diam_images.reshape(-1, 2)[:, 1]
    P_m = ev.mid_images.reshape(-1, 2)[:, 1]
    slack = np.concatenate(
        [tol - np.abs(P_d - c), (P_m - c) * np.sign(mfp[:, 1])])
    return _record("midline", slack, tol,
                   np.concatenate([ev.diam.reshape(-1, 2), mfp]))


def check_round_trip(ev, tol):
    """``sigma_inv(sigma(x)) == x`` within ``tol`` per coordinate."""
    fp = ev.pool.reshape(-1, 2)[: len(ev.inverse)]
    err = np.max(np.abs(ev.inverse - fp), axis=1)
    return _record("round_trip", tol - err, tol, fp)


def check_curve_areas(ev, tol):
    """Enclosed-area oracle agrees with the defining area on a grid."""
    a = ev.params.area_max
    grid = np.geomspace(1e-4 * a, (1.0 - 1e-9) * a, CURVE_AREA_COUNT)
    rel = np.empty(CURVE_AREA_COUNT)
    for k, A in enumerate(grid):
        try:
            rel[k] = abs(discmap.enclosed_area(A, ev.params) - A) / A
        except QuadratureNonConvergent:
            # sentinel: a non-convergent ladder fails the check outright
            rel[k] = 1.0
    return _record("curve_areas", tol - rel, tol, grid[:, None])


def check_chart_symplectic(ev, tol):
    """Pullback defect of the chart at the chart sample ``ev.chart``.

    The spot tolerance is ``tol`` where all actions are healthy and 1e-4
    where some action drops below 1e-3 (finite-difference conditioning,
    not a property failure).
    """
    pts = ev.chart
    tiered = np.where(np.any(pts[:, 1::2] < 1e-3, axis=1), 1e-4, tol)
    return _record("chart_symplectic", tiered - chart_symplectic_check(pts),
                   tol, pts)


def check_lagrangian_preimage(ev, tol):
    """Real slice lands on the torus; off-slice points leave it, signed.

    Diameter samples must embed with action distance below ``tol`` from
    the level ``c`` in every factor; near-midline samples must satisfy
    ``sign(|z_i|**2 - c) = sign(p_i)`` with strictly positive offset.
    """
    c = ev.params.c
    act_d = np.abs(chart_j(ev.diam_images)) ** 2
    act_m = np.abs(chart_j(ev.mid_images)) ** 2
    slack = np.concatenate([
        tol - np.max(np.abs(act_d - c), axis=1),
        np.min((act_m - c) * np.sign(ev.mid[:, 1::2]), axis=1),
    ])
    return _record("lagrangian_preimage", slack, tol,
                   np.concatenate([ev.diam, ev.mid]))


def check_sharpness_identity(ev, tol):
    """``n*c + r**2/2 + n*epsilon_default == 1`` and the vanishing limit.

    Also evaluates the default collar width at ``r**2 = 2/(n+1) - 1e-9``
    and requires it below 1e-9 (the collar must vanish at the bound).
    """
    params = ev.params
    n = params.n
    eps_def = max_epsilon(n, params.r)
    defect = abs(n * params.c + params.r**2 / 2.0 + n * eps_def - 1.0)
    eps_near = max_epsilon(n, np.sqrt(2.0 / (n + 1) - 1e-9))
    return _record("sharpness_identity", [tol - defect, 1e-9 - eps_near], tol)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def run_all(params: PackingParams, spec: SampleSpec | None = None,
            tolerances=None, maps=None, threads=None) -> VerificationReport:
    """Run every check over seeded pools and aggregate into a report.

    The four pools are sampled, then mapped once into a shared evaluation
    that every check reads.  The checks run in the order of
    `DEFAULT_TOLERANCES`; each ``check_<name>`` is looked up in this module
    when it is called, so a patched check is the one that runs.

    Parameters
    ----------
    params : PackingParams
    spec : SampleSpec, optional
        The primary uniform pool; defaults to ``uniform-ball`` with 1e5
        points and seed 42.  Auxiliary pools (boundary-biased, diameter,
        near-midline) get counts and seeds derived from it.
    tolerances : dict, optional
        Per-check overrides of `DEFAULT_TOLERANCES`, each finite and >= 0.
    maps : MapSet, optional
        Map implementations to verify (tests inject faulty ones here).
    threads : int, optional
        Worker threads (see `resolve_threads`); defaults to RELPACK_THREADS,
        else every core this process may run on.  A main pool of one
        block is mapped in the calling thread whatever the count.
    """
    if spec is None:
        spec = SampleSpec("uniform-ball", 100000, 42)
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
        bad = sorted(k for k, v in tolerances.items() if not 0.0 <= v < np.inf)
        if bad:
            raise ValueError(f"tolerances must be finite and >= 0: {bad}")
        tol.update(tolerances)

    aux_seeds = np.random.SeedSequence(spec.seed).generate_state(3)
    pool_uni = sample(spec, params)
    pool_bnd = sample(
        SampleSpec("boundary-biased", max(spec.count // 10, 100),
                   int(aux_seeds[0])), params)
    pool_diam = sample(
        SampleSpec("diameter-only", max(spec.count // 100, 1000),
                   int(aux_seeds[1])), params)
    pool_mid = sample(SampleSpec("midline", 1000, int(aux_seeds[2])), params)

    maps = maps or MapSet(discmap.sigma, discmap.sigma_inv, discmap.sigma_jacobian)
    ev = _evaluate(params, pool_uni, pool_bnd, pool_diam, pool_mid, maps,
                   resolve_threads(threads))
    return VerificationReport(
        n=params.n, r=params.r, epsilon=params.epsilon, seed=spec.seed,
        checks=[globals()[f"check_{name}"](ev, t) for name, t in tol.items()],
    )
