"""Area-preserving map from the open disc onto a midline neighborhood.

The map ``sigma`` sends the open disc of radius ``r`` (coordinates
``(q, p)``) into the open rectangle ``(0, pi) x (0, 2c)`` so that

* the circle ``q**2 + p**2 = u`` lands on the level curve enclosing area
  ``pi*u`` (so area is preserved: each sublevel disc keeps its area),
* the diameter ``p = 0`` lands on the horizontal midline ``P = c``, with
  the sign of ``P - c`` matching the sign of ``p`` off the diameter,
* the image stays in the band ``|P - c| <= u/2 + epsilon/2``.

Angularly, the polar angle of ``(q, p)`` is matched to the normalized area
sweep along the level curve; this choice is what makes the Jacobian
determinant equal to 1 pointwise and not just on average.  The product map
``phi`` applies ``sigma`` to each complex factor of the ball.
"""

from __future__ import annotations

import numpy as np

from .curves import _check_areas, _engine, clenshaw
from .errors import NotInImage, QuadratureNonConvergent
from .params import PackingParams

__all__ = [
    "sigma",
    "sigma_inv",
    "sigma_jacobian",
    "level_curve_point",
    "enclosed_area",
    "phi",
]

_BALL_EDGE_TOL = 1e-14
# Points per block: every batch is mapped in fixed slices of this many
# points, so peak memory does not grow with the batch (nor with the number
# of blocks that verification threads have in flight at once).
_BLOCK = 4096
# Area solve of `sigma_inv` (see `_solve_area`): bracketing grid size and
# lowest area, Newton step cap, and the log-area step that ends a row.
_AREA_GRID = 32
_AREA_FLOOR = 1e-18
_AREA_STEPS = 24
_LOG_AREA_TOL = 1e-10
# Quadrants counterclockwise from q, p > 0: the angle fraction t0 where each
# meets the midline and its coordinate signs (sq, sp); in one, the sweep
# fraction is tau4 = 4 s4 (t - t0) with s4 = sq*sp, so t = t0 + s4 tau4/4.
_QUADRANTS = np.array([[0.0, 1.0, 1.0], [0.5, -1.0, 1.0], [0.5, -1.0, -1.0],
                       [1.0, 1.0, -1.0]])
# q**2 + p**2 at or below which a point maps as the centre (its image was
# (pi/2, c) anyway), before the schedule's A-derivatives overflow as A -> 0.
_CENTRE_U = 1e-40


def _flatten(*arrays):
    """Broadcast inputs, flatten to 1-d float arrays; remember the shape."""
    bc = np.broadcast_arrays(*[np.asarray(x, dtype=float) for x in arrays])
    shape = bc[0].shape
    return [b.reshape(-1).copy() for b in bc], shape


def _slices(arrays):
    """The fixed `_BLOCK`-row slices of ``arrays``, each a list of views.

    Block boundaries depend on the row count alone, so a function that acts
    on each row alone gives, slice by slice and `_join`-ed, bitwise the
    result of one unblocked call, in whatever order or thread the slices
    run.
    """
    return [[a[i : i + _BLOCK] for a in arrays]
            for i in range(0, max(len(arrays[0]), 1), _BLOCK)]


def _join(parts):
    """Concatenate per-slice results, array by array when they are tuples."""
    if isinstance(parts[0], tuple):
        return tuple(map(np.concatenate, zip(*parts)))
    return np.concatenate(parts)


def _blocked(fn, arrays):
    """Apply ``fn`` to each of the `_slices` of ``arrays``; `_join` them."""
    return _join([fn(*s) for s in _slices(arrays)])


def _restore(arr, shape):
    if shape == ():
        return float(arr[0])
    return arr.reshape(shape)


def _quadrant(x, y):
    """The coordinate signs ``(sq, sp)`` of each point's `_QUADRANTS` row.

    The quadrants are closed at the top: a point on an axis takes the one
    of ``t = 0, 0.25, 0.5, 0.75``, and the centre the first.
    """
    neg_x = (x < 0.0) | ((x == 0.0) & (y > 0.0))
    neg_y = (y < 0.0) | ((y == 0.0) & (x < 0.0))
    # (+, +) -> 0, (-, +) -> 1, (-, -) -> 2, (+, -) -> 3
    return _QUADRANTS.take(3 * neg_y ^ neg_x, axis=0)[:, 1:].T


def _fold_angle(t):
    """Quarter-fold of the normalized angle ``t`` in (-1, 1).

    Returns the in-quadrant sweep fraction ``tau4`` in [0, 1], its
    orientation ``s4 = d(tau4)/d(4t)``, and the coordinate signs
    ``(sq, sp)`` of the quadrant.  A negative ``t`` folds as the mirror
    image of ``-t`` in the midline, so a tiny one keeps its sign (``t + 1``
    would round to 1), as `_fold_point` keeps that of a tiny ``p``; on an
    axis it takes the quadrant that ``t + 1`` would.
    """
    a4 = 4.0 * np.abs(t)
    k = np.where(t < 0.0, np.ceil(a4) - 1.0, np.floor(a4))
    t0, sq, sp = _QUADRANTS[np.clip(k, 0.0, 3.0).astype(int)].T
    s4 = sq * sp
    # not s4 * (a4 - 4 t0), which is -0.0 at t = -0.5
    tau4 = s4 * a4 - 4.0 * s4 * t0
    flip = np.where(t < 0.0, -1.0, 1.0)
    return tau4, s4 * flip, sq, sp * flip


def _fold_point(q, p):
    """`_fold_angle` of the polar angle of ``(q, p)``, read off the point.

    The in-quadrant fraction is taken from ``arctan2(|p|, |q|)`` and the
    quadrant from the signs of ``q`` and ``p`` (`_quadrant`), so a tiny
    ``p`` keeps its sign where ``arctan2(p, q)`` crosses its branch cut
    (``t + 1`` rounds to 1 there).
    """
    tau4 = 4.0 * (np.arctan2(np.abs(p), np.abs(q)) / (2.0 * np.pi))
    sq, sp = _quadrant(q, p)
    return tau4, sq * sp, sq, sp


def _curve_eval(eng, A, fold, order=0):
    """Point ``(Q, P)`` of the level curve at area ``A`` and folded fraction.

    ``order=1`` appends ``(Q_A, Q_t, P_A, P_t)``, the derivatives in ``A``
    and in ``tau4``.  Evaluated in `_blocked` slices.
    """
    tau4, _, sq, sp = fold
    return _blocked(lambda *a: _curve_block(eng, *a, order), [A, tau4, sq, sp])


def _curve_block(eng, A, tau4, sq, sp, order):
    """`_curve_eval` on one block of points.

    At ``order=0`` symmetry fixes the angle on the axes (``alpha = 0`` at
    ``tau4 == 0``, ``pi/2`` at ``tau4 == 1``, as `solve_angle` would
    return), so only the rows off them build a sweep and solve for it.
    """
    sched = eng.schedule(A, order + 1)  # shared by every step below
    if order == 0:
        alpha = np.where(tau4 <= 0.0, 0.0, np.pi / 2.0)
        off = np.flatnonzero((tau4 > 0.0) & (tau4 < 1.0))
        if off.size:
            rows, t = tuple(x[off] for x in sched), tau4[off]
            b, total, wp, bracket = eng.build_sweep(rows, 0, t)
            alpha[off] = eng.solve_angle(rows, b, total, wp, t, bracket)[0]
    else:
        b, total, wp, *sweep_A, bracket = eng.build_sweep(sched, order, tau4)
        alpha, s = eng.solve_angle(sched, b, total, wp, tau4, bracket)
    jet = eng.radius_jet(sched, alpha, order, angle=order > 0)
    R = np.sqrt(jet[0] if order else jet)
    ca, sa = np.cos(alpha), np.sin(alpha)
    Q = np.pi / 2.0 + sq * R * ca
    P = eng.c + sp * R * sa
    if order == 0:
        return Q, P
    # implicit differentiation of  Phi(A, alpha) = tau4 * total(A)
    bA, totalA = sweep_A
    V_A, V_al = jet[1:]
    al_A = (tau4 * totalA - clenshaw(bA, s)) / V_A
    al_t = total / V_A
    Q_A = sq * (ca * (V_A + V_al * al_A) / (2.0 * R) - R * sa * al_A)
    Q_t = sq * al_t * (ca * V_al / (2.0 * R) - R * sa)
    P_A = sp * (sa * (V_A + V_al * al_A) / (2.0 * R) + R * ca * al_A)
    P_t = sp * al_t * (sa * V_al / (2.0 * R) + R * ca)
    return Q, P, Q_A, Q_t, P_A, P_t


def _check_in_ball(u, r, what="q**2 + p**2"):
    # written so that NaN fails the test
    if not np.all(u <= r**2 - _BALL_EDGE_TOL):
        raise ValueError(
            f"point outside the open ball: {what} must be finite and stay "
            f"below r**2 = {r**2!r} by more than {_BALL_EDGE_TOL:g}"
        )


def _polar(q, p, params):
    """Polar preamble of `sigma` and `sigma_jacobian`; rejects non-finite points.

    Returns flat ``q, p``, the input shape, the folded polar angle
    (`_fold_point`), the off-center mask, and the area ``pi*u`` with a
    stand-in at the center, so it is never 0.
    """
    (qf, pf), shape = _flatten(q, p)
    u = qf * qf + pf * pf
    _check_in_ball(u, params.r)
    interior = u > _CENTRE_U
    A_safe = np.where(interior, np.pi * u, params.area_max * 1e-8)
    return qf, pf, shape, _fold_point(qf, pf), interior, A_safe


def _centred(eng, Q, P, interior, shape):
    """Send the center to ``(pi/2, c)`` and restore the input shape."""
    Q = np.where(interior, Q, np.pi / 2.0)
    P = np.where(interior, P, eng.c)
    return _restore(Q, shape), _restore(P, shape)


def sigma(q, p, params: PackingParams):
    """Map disc points into the rectangle, preserving area.

    Parameters
    ----------
    q, p : array_like
        Disc coordinates with ``q**2 + p**2 < r**2`` (strictly; points
        within 1e-14 of the boundary are rejected).
    params : PackingParams

    Returns
    -------
    Q, P : float or ndarray
        Image coordinates, ``Q`` in ``(0, pi)`` and ``P`` in ``(0, 2c)``.

    Notes
    -----
    The center maps to the curve family's center ``(pi/2, c)``.  Points on
    the diameter ``p = 0`` return ``P == c`` exactly.  Points are mapped in
    fixed blocks of `_BLOCK`, so beyond the O(N) inputs and outputs peak
    memory is O(`_BLOCK` * ncheb) whatever the batch size.
    """
    _, _, shape, fold, interior, A_safe = _polar(q, p, params)
    eng = _engine(params)
    return _centred(eng, *_curve_eval(eng, A_safe, fold), interior, shape)


def level_curve_point(A, phi_frac, params: PackingParams):
    """Point on the level curve of area ``A`` at sweep fraction ``phi_frac``.

    ``phi_frac = 0`` is the rightmost midline crossing ``(pi/2 + a, c)``;
    ``phi_frac = 0.25`` is the top ``(pi/2, c + h)``; the fraction advances
    counterclockwise proportionally to enclosed-area sweep, matching the
    angular parametrization used by `sigma`.
    """
    _check_areas(np.asarray(A, dtype=float), params.area_max)
    if not np.all(np.isfinite(phi_frac)):
        raise ValueError("sweep fraction must be finite")
    # fmod is exact and keeps the sign of the fraction, which mod would round
    (A_f, t_f), shape = _flatten(A, np.fmod(phi_frac, 1.0))
    eng = _engine(params)
    Q, P = _curve_eval(eng, A_f, _fold_angle(t_f))
    return _restore(Q, shape), _restore(P, shape)


def _area_grid(eng, params: PackingParams):
    """`_solve_area`'s grid: its top area, its log-areas and their schedule.

    The grid depends on the parameters alone, so it is built once and kept
    on their engine rather than on every `sigma_inv` call.
    """
    grid = getattr(eng, "_area_grid", None)
    if grid is None:
        A_lim = np.pi * (params.r**2 - _BALL_EDGE_TOL)
        xg = np.linspace(np.log(_AREA_FLOOR), np.log(A_lim), _AREA_GRID)
        Ag = np.exp(xg)
        Ag[-1] = A_lim  # exp(log(A_lim)) may be an ulp off
        grid = eng._area_grid = (A_lim, xg, eng.schedule(Ag))
    return grid


def _solve_area(eng, rho2, alpha, grid, require):
    """Area ``A`` of the level curve through each point: ``V(A, alpha) = rho2``.

    One `radius_jet` pass on the fixed grid of log-spaced areas
    (`_area_grid`), whose top node is ``A_lim`` itself, rejects points on or
    outside the outermost curve and brackets every other root between
    adjacent nodes (below the grid, where the curves are round and ``V`` is
    proportional to ``A``, the bracket is extrapolated with slope one).  A
    secant start in ``g = log V - log rho2`` is refined by Newton steps in
    ``x = log A``; a step that leaves the bracket is replaced by bisection.
    A row freezes once a step accepted inside its bracket is at most
    ``_LOG_AREA_TOL`` or it hits ``g == 0``, so its iterates depend on that
    row alone and the result does not depend on the batch.  The center
    ``rho2 == 0`` is solved for the bottom node's radius; the caller sends
    it back to the center.
    """
    A_lim, xg, sched = grid
    V = eng.radius_jet(sched, alpha[:, None])
    require(rho2 < V[:, -1])
    rho2 = np.where(rho2 > 0.0, rho2, V[:, 0])
    lr = np.log(rho2)
    k = np.sum(V < rho2[:, None], axis=-1)  # nodes below the point
    km = np.maximum(k - 1, 0)
    g_hi = np.log(np.take_along_axis(V, k[:, None], axis=-1)[:, 0]) - lr
    g_lo = np.log(np.take_along_axis(V, km[:, None], axis=-1)[:, 0]) - lr
    del V
    hi = xg[k]
    lo = np.where(k > 0, xg[km], hi - g_hi - 1.0)
    g_lo = np.where(k > 0, g_lo, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
    x = np.where(np.isfinite(x), x, 0.5 * (lo + hi))
    rows = np.arange(x.size)
    for _ in range(_AREA_STEPS):
        if rows.size == 0:
            break
        xr = x[rows]
        A = np.exp(xr)
        V, V_A = eng.radius_jet(eng.schedule(A, 1), alpha[rows], 1)
        g = np.log(V) - lr[rows]
        lo_r = np.where(g < 0.0, xr, lo[rows])
        hi_r = np.where(g > 0.0, xr, hi[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g * V / (A * V_A)
        x_new = xr - step
        # inclusive, so that a converged iterate sitting on an end of its
        # bracket is kept; an outside step is bisected, not clamped, which
        # would cycle between the ends of a cell where V grows steeply
        ok = (x_new >= lo_r) & (x_new <= hi_r)
        x[rows] = np.where(g == 0.0, xr, np.where(ok, x_new, 0.5 * (lo_r + hi_r)))
        lo[rows], hi[rows] = lo_r, hi_r
        rows = rows[~((g == 0.0) | (ok & (np.abs(step) <= _LOG_AREA_TOL)))]
    return np.minimum(np.exp(x), A_lim)


def sigma_inv(Q, P, params: PackingParams):
    """Invert `sigma` on the image of the open disc.

    The level curve through ``(Q, P)`` is found by solving for its area
    along the ray from the center (see `_solve_area`: a fixed log-area grid
    brackets the root, Newton steps in ``log A`` finish it), and the polar
    angle is the sweep fraction of that curve at the point's quarter angle.
    On the centre lines ``P = c`` and ``Q = pi/2`` symmetry fixes that
    fraction, and the point comes back exactly on the matching disc axis.
    That fraction is read in closed form (`_CurveEngine.sweep_fraction`),
    with no series.  Like `sigma`, it works on fixed blocks of `_BLOCK`
    points, so its peak memory is O(`_BLOCK` * `_AREA_GRID`) beyond the
    inputs and outputs.

    Raises
    ------
    NotInImage
        If ``(Q, P)`` lies on or outside the outermost level curve (the
        image of the open ball boundary), is not finite, or lies outside
        the rectangle.
    """
    (Qf, Pf), shape = _flatten(Q, P)
    eng = _engine(params)
    grid = _area_grid(eng, params)
    q, p = _blocked(lambda Qb, Pb: _inverse_block(eng, Qb, Pb, grid), [Qf, Pf])
    return _restore(q, shape), _restore(p, shape)


def _inverse_block(eng, Q, P, grid):
    """`sigma_inv` on one block of flat points; errors name the input point."""

    def require(ok):
        if not np.all(ok):
            i = np.argmin(ok)
            raise NotInImage(
                f"point (Q, P) = ({float(Q[i])!r}, {float(P[i])!r}) is not "
                "inside the image of the open ball"
            )

    xi = Q - np.pi / 2.0
    up = P - eng.c
    rho2 = xi * xi + up * up
    # a non-finite point must not reach the area solve
    require(np.isfinite(rho2))
    alpha_q = np.arctan2(np.abs(up), np.abs(xi))
    A = _solve_area(eng, rho2, alpha_q, grid, require)
    # the quarter sweep fraction, which symmetry fixes on the centre lines
    phi_q = np.where(up == 0.0, 0.0, 0.25)
    off = np.flatnonzero((up != 0.0) & (xi != 0.0))
    if off.size:
        A_off = A[off]
        tau = eng.sweep_fraction(A_off, eng.schedule(A_off, 1), alpha_q[off])
        phi_q[off] = np.clip(0.25 * tau, 0.0, 0.25)
    # unfold it into the quadrant of (xi, up): on [0, 1/4] the cosine and
    # sine of 2 pi phi_q are >= 0, so the signs are the quadrant's, and a
    # point next to a centre line comes back on its side of the disc axis
    sq, sp = _quadrant(xi, up)
    root, th = np.sqrt(A / np.pi), 2.0 * np.pi * phi_q
    # a point on a centre line (or the centre) comes back on a disc axis
    q = np.where(xi == 0.0, 0.0, sq * root * np.cos(th))
    p = np.where(up == 0.0, 0.0, sp * root * np.sin(th))
    return q, p


def sigma_jacobian(q, p, params: PackingParams):
    """`sigma` together with its Jacobian, in closed form.

    Returns
    -------
    Q, P : float or ndarray
        The image, bit for bit what `sigma` returns.
    J : ndarray, shape (..., 2, 2)
        ``J[..., 0, :] = (dQ/dq, dQ/dp)`` and ``J[..., 1, :] = (dP/dq,
        dP/dp)``.  At the center the map is smooth and the Jacobian is the
        identity.

    Notes
    -----
    The image and the derivatives share one sweep build, angle solve and
    radius jet.  The derivatives are exact: those of the schedule and the
    level-curve radius, and that of the solved sweep angle, obtained by
    differentiating the sweep equation implicitly.  With no finite
    differences, the determinant is 1 up to quadrature roundoff even where
    the curve shape changes on a scale far below any sensible step.
    """
    qf, pf, shape, fold, interior, A_safe = _polar(q, p, params)
    eng = _engine(params)
    Q, P, Q_A, Q_t, P_A, P_t = _curve_eval(eng, A_safe, fold, 1)
    A_q, A_p = 2.0 * np.pi * qf, 2.0 * np.pi * pf
    t_q, t_p = -pf / (2.0 * A_safe), qf / (2.0 * A_safe)
    tau_q, tau_p = 4.0 * fold[1] * t_q, 4.0 * fold[1] * t_p

    J = np.empty((qf.size, 2, 2))
    J[:, 0, 0] = np.where(interior, Q_A * A_q + Q_t * tau_q, 1.0)
    J[:, 0, 1] = np.where(interior, Q_A * A_p + Q_t * tau_p, 0.0)
    J[:, 1, 0] = np.where(interior, P_A * A_q + P_t * tau_q, 0.0)
    J[:, 1, 1] = np.where(interior, P_A * A_p + P_t * tau_p, 1.0)
    return *_centred(eng, Q, P, interior, shape), J.reshape(shape + (2, 2))


def _quarter_arc(eng, A, nvert):
    """First-quadrant arc of the level curve at ``A``, for ``nvert`` vertices.

    ``nvert`` must be a multiple of 4; the ``nvert/4 + 1`` arc vertices
    follow the sinh warp used by the quadrature, which concentrates them
    where the curve bends fastest.  The warped abscissae are dyadic, so
    every second vertex is, bit for bit, the arc for ``nvert/2``.
    """
    sched = eng.schedule(np.asarray([A]))
    al = eng.warp(np.linspace(-1.0, 1.0, nvert // 4 + 1), eng.warp_params(sched))[0]
    R = np.sqrt(eng.radius_jet(sched, al))
    return R * np.cos(al), R * np.sin(al)


def _closed_polyline(xq, yq):
    """The closed polyline through a `_quarter_arc` and its three mirrors."""
    x = np.concatenate([xq[:-1], -xq[::-1][:-1], -xq[:-1], xq[::-1][:-1]])
    y = np.concatenate([yq[:-1], yq[::-1][:-1], -yq[:-1], -yq[::-1][:-1]])
    return x, y


def _shoelace(x, y):
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def enclosed_area(A, params: PackingParams) -> float:
    """Independently measure the area enclosed by the level curve at ``A``.

    Polygonal (shoelace) area of a corner-clustered polyline, Richardson
    extrapolated over a doubling ladder of 2048, 4096 and 8192 vertices.
    The curve is evaluated once, on the finest ladder's `_quarter_arc`, and
    the coarser ladders take every fourth and every second of its vertices,
    which are theirs bit for bit.  This shares no code path with the sweep
    quadrature inside `sigma`, which is what makes it useful as an oracle:
    agreement with ``A`` certifies the curve family itself, independent of
    the map built on top of it.

    Raises
    ------
    QuadratureNonConvergent
        If consecutive Richardson extrapolants disagree by more than
        ``1e-7 * A``.
    ValueError
        If ``A`` is outside ``(0, pi*r**2)``.
    """
    A = float(A)
    _check_areas(A, params.area_max)
    xq, yq = _quarter_arc(_engine(params), A, 8192)
    areas = [_shoelace(*_closed_polyline(xq[::k], yq[::k])) for k in (4, 2, 1)]
    rich1 = (4.0 * areas[1] - areas[0]) / 3.0
    rich2 = (4.0 * areas[2] - areas[1]) / 3.0
    if abs(rich2 - rich1) > 1e-7 * A:
        raise QuadratureNonConvergent(
            f"polyline area ladder for A={A!r} left residual "
            f"{abs(rich2 - rich1):.3e}"
        )
    return float(rich2)


def phi(coords, params: PackingParams):
    """Product map: apply `sigma` to each complex factor of the ball.

    Parameters
    ----------
    coords : array_like, shape (..., 2n)
        Ball coordinates ordered ``(q1, p1, q2, p2, ..., qn, pn)`` with
        ``sum_i (q_i**2 + p_i**2) < r**2`` strictly.
    params : PackingParams

    Returns
    -------
    ndarray, shape (..., 2n)
        Rectangle coordinates ``(Q1, P1, ..., Qn, Pn)``.
    """
    coords = np.asarray(coords, dtype=float)
    n = params.n
    if coords.shape[-1] != 2 * n:
        raise ValueError(f"expected trailing dimension {2 * n}, got {coords.shape}")
    u_total = np.sum(coords**2, axis=-1)
    _check_in_ball(u_total, params.r, what="sum of q_i**2 + p_i**2")
    out = np.empty_like(coords)
    out[..., 0::2], out[..., 1::2] = sigma(coords[..., 0::2], coords[..., 1::2],
                                           params)
    return out

