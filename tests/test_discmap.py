"""The area-preserving factor map: values, Jacobian, inverse, and areas."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relpack import (
    NotInImage,
    QuadratureNonConvergent,
    enclosed_area,
    level_curve_point,
    make_params,
    phi,
    shape_schedule,
    sigma,
    sigma_inv,
    sigma_jacobian,
)
from relpack import curves, discmap

from conftest import ball_points


# ---------------------------------------------------------------------------
# pointwise values and symmetry


def test_center_is_fixed(p28):
    Q, P = sigma(0.0, 0.0, p28)
    assert Q == np.pi / 2.0
    assert P == p28.c


def test_half_inch_point_obeys_band(p28):
    # u = 0.34 here, so the action may stray at most 0.17 + epsilon from c
    Q, P = sigma(0.5, 0.3, p28)
    assert P <= 1.0 / 3.0 + 0.17 + p28.epsilon
    assert P < 0.510
    assert 0.0 < Q < np.pi
    assert P > p28.c  # upper half-disc maps above the midline


def test_sign_conventions(p28):
    Q, P = sigma(0.0, 0.4, p28)
    assert P > p28.c
    Q, P = sigma(0.0, -0.4, p28)
    assert P < p28.c
    Q, P = sigma(0.4, 0.0, p28)
    assert Q > np.pi / 2.0 and P == pytest.approx(p28.c, abs=1e-15)
    Q, P = sigma(-0.4, 0.0, p28)
    assert Q < np.pi / 2.0 and P == pytest.approx(p28.c, abs=1e-15)


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_midline_sign_survives_the_branch_cut(n, r):
    # arctan2(p, q) + 2*pi rounds to 2*pi for a tiny negative p at q > 0,
    # and arctan2 rounds to +-pi for a tiny p at q < 0: the sign of p must
    # survive both, and reflecting p must reflect P - c exactly
    params = make_params(n, r)
    q = np.array([0.5, 0.5, -0.5, -0.5, 0.5, -0.5])
    p = np.array([1e-17, 1e-16, 1e-17, 1e-16, 1e-12, 1e-12])
    c = params.c
    for Q, P, Qm, Pm in (
        (*sigma(q, p, params), *sigma(q, -p, params)),
        (*sigma_jacobian(q, p, params)[:2], *sigma_jacobian(q, -p, params)[:2]),
    ):
        assert np.array_equal(Qm, Q)
        assert np.array_equal(Pm - c, -(P - c))
        assert np.all(P >= c)
        assert np.all(P[p >= 1e-16] > c)


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_angle_near_the_diameter_is_resolved(n, r):
    # near alpha = 0 the quarter sweep is V_A(A, 0) * alpha + O(alpha**3)
    # and its total is 1/2, so P - c = R * tau4 / (2 V_A(A, 0)) up to
    # O(alpha**2); the target there lies below the series' own rounding
    # (about 1e-16), which must not decide the angle
    params = make_params(n, r)
    eng = curves._engine(params)
    for q in (0.5, -0.3, 0.05):
        A = np.array([np.pi * q * q])
        V, V_A = eng.radius_jet(eng.schedule(A, 1), np.zeros(1), 1)
        for p in (1e-16, 1e-14, 1e-11):
            tau4 = 4.0 * np.arctan2(p, abs(q)) / (2.0 * np.pi)
            expected = np.sqrt(V[0]) * tau4 / (2.0 * V_A[0])
            _, P = sigma(q, p, params)
            assert abs((P - params.c) - expected) <= (
                2.0 * np.spacing(params.c) + 1e-3 * expected)


def test_reflection_equivariance(p28, rng):
    q = rng.uniform(-0.5, 0.5, 200)
    p = rng.uniform(-0.5, 0.5, 200)
    keep = q**2 + p**2 < 0.98 * p28.r**2
    q, p = q[keep], p[keep]
    Q1, P1 = sigma(q, p, p28)
    Q2, P2 = sigma(q, -p, p28)
    assert np.max(np.abs(Q2 - Q1)) <= 1e-12
    assert np.max(np.abs((P2 - p28.c) + (P1 - p28.c))) <= 1e-12
    Q3, P3 = sigma(-q, p, p28)
    assert np.max(np.abs((Q3 - np.pi / 2.0) + (Q1 - np.pi / 2.0))) <= 1e-12
    assert np.max(np.abs(P3 - P1)) <= 1e-12


def test_band_and_box_on_random_points(p28, rng):
    pts = ball_points(rng, make_params(1, p28.r, p28.epsilon), 5000)
    q, p = pts[:, 0], pts[:, 1]
    Q, P = sigma(q, p, p28)
    u = q**2 + p**2
    # the construction leaves half an epsilon of headroom inside the band
    assert np.max(np.abs(P - p28.c) - u / 2.0) <= p28.epsilon / 2.0 + 1e-12
    assert np.all((Q > 0.0) & (Q < np.pi))
    assert np.all(P > 0.0)


def test_rejects_points_outside_ball(p28):
    with pytest.raises(ValueError):
        sigma(p28.r, 0.0, p28)
    with pytest.raises(ValueError):
        sigma(0.7, 0.7, p28)
    # just inside is fine
    sigma(p28.r * (1.0 - 1e-8), 0.0, p28)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise(p28, bad):
    # NaN compares False both ways, so every range test must reject it
    for call in (sigma, sigma_jacobian):
        with pytest.raises(ValueError):
            call(bad, 0.1, p28)
        with pytest.raises(ValueError):
            call(np.array([0.1, 0.2]), np.array([0.1, bad]), p28)
    # rejected before any level-curve radius is evaluated at a NaN angle
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for Q, P in ((bad, 0.3),
                     (np.array([np.pi / 2.0, 1.5]), np.array([p28.c, bad]))):
            with pytest.raises(NotInImage) as info:
                sigma_inv(Q, P, p28)
            assert "np.float64" not in str(info.value)
    with pytest.raises(ValueError):
        level_curve_point(bad, 0.1, p28)
    with pytest.raises(ValueError):
        level_curve_point(0.9, bad, p28)
    with pytest.raises(ValueError):
        enclosed_area(bad, p28)


def test_scalar_and_array_shapes(p28):
    Q, P = sigma(0.1, 0.2, p28)
    assert np.ndim(Q) == 0 and np.ndim(P) == 0
    Q, P = sigma(np.full(7, 0.1), np.full(7, 0.2), p28)
    assert Q.shape == (7,) and P.shape == (7,)
    Q, P, J = sigma_jacobian(np.full((3, 2), 0.1), np.full((3, 2), 0.2), p28)
    assert Q.shape == (3, 2) and P.shape == (3, 2) and J.shape == (3, 2, 2, 2)
    Q, P, J = sigma_jacobian(0.1, 0.2, p28)
    assert np.ndim(Q) == 0 and np.ndim(P) == 0 and J.shape == (2, 2)


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_results_do_not_depend_on_the_batch(n, r, rng):
    params = make_params(n, r)
    pts = ball_points(rng, make_params(1, r, params.epsilon), 200)
    # the center, then four axis points with tau4 in {0, 1}
    pts[:5] = [[0.0, 0.0], [0.3, 0.0], [-0.3, 0.0], [0.0, 0.3], [0.0, -0.3]]
    q, p = pts[:, 0], pts[:, 1]
    Q, P = sigma(q, p, params)
    Q_J, P_J, J = sigma_jacobian(q, p, params)
    # sigma_jacobian's image is sigma's, bit for bit
    assert np.array_equal(Q_J, Q) and np.array_equal(P_J, P)
    one = np.array([sigma(a, b, params) for a, b in zip(q, p)])
    assert np.array_equal(one, np.column_stack([Q, P]))
    one_jac = [sigma_jacobian(a, b, params) for a, b in zip(q, p)]
    assert np.array_equal([x[:2] for x in one_jac], one)
    assert np.array_equal(np.stack([x[2] for x in one_jac]), J)
    pre = sigma(q[:37], p[:37], params)
    assert np.array_equal(pre, (Q[:37], P[:37]))
    pre_jac = sigma_jacobian(q[:37], p[:37], params)
    assert np.array_equal(pre_jac[:2], pre)
    assert np.array_equal(pre_jac[2], J[:37])
    # and so is the inverse, the center and the axis points included
    q2, p2 = sigma_inv(Q, P, params)
    one_inv = np.array([sigma_inv(a, b, params) for a, b in zip(Q, P)])
    assert np.array_equal(one_inv, np.column_stack([q2, p2]))
    assert np.array_equal(sigma_inv(Q[:37], P[:37], params), (q2[:37], p2[:37]))
    assert (q2[0], p2[0]) == (0.0, 0.0)


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_blocks_do_not_change_results(n, r, rng, monkeypatch):
    params = make_params(n, r)
    pts = ball_points(rng, make_params(1, r, params.epsilon), 300)
    pts[:5] = [[0.0, 0.0], [0.3, 0.0], [-0.3, 0.0], [0.0, 0.3], [0.0, -0.3]]
    q, p = pts[:, 0], pts[:, 1]
    Q, P = sigma(q, p, params)
    jac = sigma_jacobian(q, p, params)
    inv = sigma_inv(Q, P, params)
    # 37-point outer blocks, 3-row inner blocks: both levels cross many
    # boundaries, and the last block of each is short
    ncheb = curves._engine(params).ncheb
    monkeypatch.setattr(discmap, "_BLOCK", 37)
    monkeypatch.setattr(curves, "_SWEEP_ELEMS", 3 * (ncheb + 1))
    assert np.array_equal(sigma(q, p, params), (Q, P))
    blocked = sigma_jacobian(q, p, params)
    assert all(np.array_equal(x, y) for x, y in zip(blocked, jac))
    assert np.array_equal(sigma_inv(Q, P, params), inv)
    # an error from a later block names the input point that caused it
    P_bad = P.copy()
    P_bad[250] = params.c + 1.0  # above every level curve
    named = re.escape(f"({float(Q[250])!r}, {float(P_bad[250])!r})")
    with pytest.raises(NotInImage, match=named):
        sigma_inv(Q, P_bad, params)


def _sweep_heights(eng, monkeypatch):
    """Record the half-height ``h``, which grows strictly with the area, of
    every row whose schedule `build_sweep` is handed."""
    seen = []
    build = eng.build_sweep

    def recording(sched, order=0, tau4=None):
        seen.append(np.array(sched[0], dtype=float).ravel())
        return build(sched, order, tau4)

    monkeypatch.setattr(eng, "build_sweep", recording)
    return lambda: np.concatenate(seen) if seen else np.empty(0)


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_axis_points_build_no_sweep(n, r, rng, monkeypatch):
    params = make_params(n, r)
    eng = curves._engine(params)
    seen = _sweep_heights(eng, monkeypatch)
    # the diameter, as every certificate maps it: no sweep at all
    diam = np.zeros((50, 2 * n))
    diam[:, 0::2] = ball_points(rng, make_params(n, r, params.epsilon), 50)[:, :n]
    phi(diam, params)
    level_curve_point(0.5, np.array([0.0, 0.25, 0.5, 0.75, 1.0]), params)
    assert seen().size == 0
    # a mixed batch: exactly the off-axis rows, in order
    pts = ball_points(rng, make_params(1, r, params.epsilon), 40)
    pts[::4, 1] = 0.0
    pts[1::4, 0] = 0.0
    pts[2] = [0.0, 0.0]
    q, p = pts[:, 0], pts[:, 1]
    off = (q != 0.0) & (p != 0.0)
    sigma(q, p, params)
    assert np.array_equal(seen(), eng.schedule(np.pi * (q * q + p * p)[off])[0])
    # the Jacobian needs the sweep's totals on the axes too: every row
    # (the centre with its stand-in area)
    sigma_jacobian(q, p, params)
    assert seen().size == off.sum() + q.size


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_axis_images_are_exact(n, r, rng):
    params = make_params(n, r)
    eng = curves._engine(params)
    s = np.concatenate([[0.3, -0.3, 1e-9, -1e-9], rng.uniform(-r, r, 40) * (1 - 1e-9)])
    A = np.pi * (s * s)  # as sigma forms it
    sched = eng.schedule(A)
    side = np.sqrt(eng.radius_jet(sched, np.zeros_like(A)))
    top = np.sqrt(eng.radius_jet(sched, np.full_like(A, np.pi / 2.0)))
    for Q, P in (sigma(s, 0.0, params), sigma_jacobian(s, 0.0, params)[:2]):
        assert np.all(P == params.c)
        assert np.array_equal(Q, np.pi / 2.0 + np.sign(s) * side)
    for Q, P in (sigma(0.0, s, params), sigma_jacobian(0.0, s, params)[:2]):
        assert np.array_equal(P, params.c + np.sign(s) * top)


def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_sigma_memory_is_bounded(p28, rng):
    pts = ball_points(rng, make_params(1, p28.r, p28.epsilon), 100000)
    assert _peak_mib(sigma, pts[:, 0], pts[:, 1], p28) <= 256.0


# ---------------------------------------------------------------------------
# level curves through the map


def test_level_curve_point_axes(p28):
    A = 0.9
    h, a, _ = shape_schedule(A, p28)
    Q, P = level_curve_point(A, 0.0, p28)
    assert Q == np.pi / 2.0 + a and P == p28.c
    Q, P = level_curve_point(A, 0.25, p28)
    assert Q == pytest.approx(np.pi / 2.0, abs=1e-14)
    assert P == p28.c + h
    Q, P = level_curve_point(A, 0.5, p28)
    assert Q == pytest.approx(np.pi / 2.0 - a, abs=1e-14)
    # the fraction wraps modulo one
    Q0, P0 = level_curve_point(A, 0.0, p28)
    Q1, P1 = level_curve_point(A, 1.0, p28)
    assert Q1 == pytest.approx(Q0, abs=1e-12) and P1 == pytest.approx(P0, abs=1e-12)


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_negative_fraction_mirrors_positive(n, r):
    # mod(-1e-17, 1) rounds to 1, which would fold onto the midline: the
    # fraction -x is the mirror image of x in the midline, tiny x included
    params = make_params(n, r)
    A, c = 0.5 * params.area_max, params.c
    x = np.array([1e-17, 1e-13, 0.1, 0.3, 0.6])
    Q, P = level_curve_point(A, x, params)
    Qm, Pm = level_curve_point(A, -x, params)
    assert np.array_equal(Qm, Q)
    assert np.max(np.abs((Pm - c) + (P - c))) <= 4.0 * np.spacing(c)
    assert np.array_equal((Pm - c)[:2], -(P - c)[:2])
    assert P[0] > c > Pm[0]
    # on the axes -x folds into the quadrant of 1 - x, point for point
    x = np.array([0.25, 0.5, 0.75])
    for neg, pos in zip(discmap._fold_angle(-x), discmap._fold_angle(1.0 - x)):
        assert np.array_equal(neg, pos)
    Qm, Pm = level_curve_point(A, -x, params)
    Q, P = level_curve_point(A, 1.0 - x, params)
    assert np.array_equal(Qm, Q) and np.array_equal(Pm, P)


def test_circle_image_lies_on_level_curve(p28):
    u = 0.21
    t = np.linspace(0.0, 1.0, 97)
    Q1, P1 = sigma(np.sqrt(u) * np.cos(2 * np.pi * t), np.sqrt(u) * np.sin(2 * np.pi * t), p28)
    Q2, P2 = level_curve_point(np.pi * u, t, p28)
    assert np.max(np.abs(Q1 - Q2)) <= 1e-10
    assert np.max(np.abs(P1 - P2)) <= 1e-10


# ---------------------------------------------------------------------------
# inverse


def test_round_trip_pinned_point(p28):
    Q, P = sigma(0.5, 0.3, p28)
    q, p = sigma_inv(Q, P, p28)
    assert abs(q - 0.5) <= 1e-9 and abs(p - 0.3) <= 1e-9
    # the recovered action is exact to quadrature accuracy
    assert abs(q**2 + p**2 - 0.34) <= 1e-9


def test_round_trip_random(p28, rng):
    pts = ball_points(rng, make_params(1, p28.r, p28.epsilon), 4000)
    q, p = pts[:, 0], pts[:, 1]
    Q, P = sigma(q, p, p28)
    q2, p2 = sigma_inv(Q, P, p28)
    assert np.max(np.abs(q2 - q)) <= 1e-10
    assert np.max(np.abs(p2 - p)) <= 1e-10


@pytest.mark.parametrize("n, r", [(2, 0.8), (3, 0.7), (4, 0.63), (6, 0.534)])
def test_round_trip_adversarial(n, r):
    # hard against the ball boundary, on the axes, and within 1e-3 of them,
    # where the level curves are most eccentric and the area solve steepest
    params = make_params(n, r)
    quarter = np.pi / 2.0 * np.arange(4)
    theta = np.concatenate(
        [quarter + d for d in (0.0, 1e-3, -1e-3, 1e-7, -1e-7)]
        + [np.linspace(0.0, 2.0 * np.pi, 41)]
    )
    rad = r * np.array([1.0 - 1e-12, 1.0 - 1e-6, 0.5, 1e-3, 1e-8])
    rad, theta = (x.ravel() for x in np.meshgrid(rad, theta))
    q, p = rad * np.cos(theta), rad * np.sin(theta)
    Q, P = sigma(q, p, params)
    q2, p2 = sigma_inv(Q, P, params)
    assert np.max(np.abs(q2 - q)) <= 1e-10
    assert np.max(np.abs(p2 - p)) <= 1e-10


def test_inverse_radius_passes(p28, monkeypatch, rng):
    # a grid pass brackets the area and Newton steps finish it: a handful
    # of radius passes, not a bisection; the closed-form sweep fraction
    # makes none
    eng = discmap._engine(p28)
    pts = ball_points(rng, make_params(1, p28.r, p28.epsilon), 64)
    Q, P = sigma(pts[:, 0], pts[:, 1], p28)
    calls = [0]
    radius_jet = eng.radius_jet  # behind the area solve and every sweep build

    def counting(*args, **kwargs):
        calls[0] += 1
        return radius_jet(*args, **kwargs)

    monkeypatch.setattr(eng, "radius_jet", counting)
    per_point = []
    for a, b in zip(Q, P):
        calls[0] = 0
        sigma_inv(a, b, p28)
        per_point.append(calls[0])
    assert np.median(per_point) <= 4


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_inverse_returns_axis_points_exactly(n, r, rng, monkeypatch):
    params = make_params(n, r)
    s = np.concatenate([[0.3, -0.3], rng.uniform(-r, r, 20) * (1.0 - 1e-9)])
    zero = np.zeros_like(s)
    q, p = sigma_inv(*sigma(s, zero, params), params)
    assert np.all(p == 0.0) and np.array_equal(np.sign(q), np.sign(s))
    q, p = sigma_inv(*sigma(zero, s, params), params)
    assert np.all(q == 0.0) and np.array_equal(np.sign(p), np.sign(s))
    # no point builds a sweep series, and symmetry fixes the sweep fraction
    # of the axis points, so they do not reach the closed form either
    axes = sigma(np.append(s, zero), np.append(zero, s), params)
    pts = ball_points(rng, make_params(1, r, params.epsilon), 30)
    off = sigma(pts[:, 0], pts[:, 1], params)
    eng = curves._engine(params)

    def no_series(*args, **kwargs):
        raise AssertionError("sigma_inv built a sweep series")

    closed = []
    fraction = eng.sweep_fraction

    def recording(A, sched, alpha):
        closed.append(alpha.size)
        return fraction(A, sched, alpha)

    monkeypatch.setattr(eng, "build_sweep", no_series)
    monkeypatch.setattr(discmap, "clenshaw", no_series)
    monkeypatch.setattr(eng, "sweep_fraction", recording)
    sigma_inv(*axes, params)
    assert closed == []
    sigma_inv(*off, params)
    assert closed == [30]


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_inverse_keeps_the_side_of_a_centre_line(n, r):
    # one ulp off Q = pi/2 or P = c, in each quadrant, the point comes back
    # on its side of the disc axis: sign(q) = sign(Q - pi/2), sign(p) =
    # sign(P - c)
    params = make_params(n, r)
    h_max = shape_schedule(0.999 * params.area_max, params)[0]
    d = np.geomspace(3e-4, 0.9 * h_max, 60)
    for sQ, sP in ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)):
        Q = np.full(d.size, np.nextafter(np.pi / 2.0, sQ * np.inf))
        P = np.full(d.size, np.nextafter(params.c, sP * np.inf))
        Q = np.concatenate([Q, np.pi / 2.0 + sQ * d])
        P = np.concatenate([params.c + sP * d, P])
        q, p = sigma_inv(Q, P, params)
        assert np.all(np.sign(q) == sQ) and np.all(np.sign(p) == sP)


def test_inverse_rejects_points_off_image(p28):
    with pytest.raises(NotInImage):
        sigma_inv(np.pi / 2.0, 0.7, p28)  # above every level curve
    with pytest.raises(NotInImage):
        sigma_inv(0.01, p28.c, p28)  # beyond the widest half-width
    with pytest.raises(NotInImage):
        sigma_inv(np.pi - 0.01, p28.c, p28)


def test_images_of_distinct_points_are_distinct(p28, rng):
    pts = ball_points(rng, make_params(1, p28.r, p28.epsilon), 400)
    Q, P = sigma(pts[:, 0], pts[:, 1], p28)
    img = np.stack([Q, P], axis=1)
    d = np.linalg.norm(img[:, None, :] - img[None, :, :], axis=-1)
    d[np.diag_indices_from(d)] = np.inf
    assert d.min() > 0.0


# ---------------------------------------------------------------------------
# Jacobian


def test_jacobian_identity_at_center(p28):
    Q, P, J = sigma_jacobian(0.0, 0.0, p28)
    assert (Q, P) == (np.pi / 2.0, p28.c)
    assert np.allclose(J, np.eye(2), atol=1e-13)


def _det(J):
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


@pytest.mark.parametrize("x", [1e-30, 1e-100, 1e-150, 1e-160, 1e-170])
def test_jacobian_next_to_the_centre(p28, x):
    # the schedule's second area derivatives overflow for A below ~1e-150,
    # and at 1e-170 q**2 + p**2 underflows to 0 while q does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, p in ((x, 0.0), (0.0, x), (-x, x)):
            Q, P, J = sigma_jacobian(q, p, p28)
            assert np.all(np.isfinite(J)) and abs(_det(J) - 1.0) <= 1e-12
            assert (Q, P) == (np.pi / 2.0, p28.c)


def test_determinant_is_one_generic(p28, rng):
    pts = ball_points(rng, make_params(1, p28.r, p28.epsilon), 3000)
    _, _, J = sigma_jacobian(pts[:, 0], pts[:, 1], p28)
    assert np.max(np.abs(_det(J) - 1.0)) <= 1e-9


def test_determinant_is_one_adversarial(p28, rng):
    # the cap-engagement ring, where the height schedule switches branch
    u = 10.0 ** rng.uniform(np.log10(5e-4), np.log10(2e-2), 2000)
    th = rng.uniform(0.0, 2.0 * np.pi, 2000)
    q, p = np.sqrt(u) * np.cos(th), np.sqrt(u) * np.sin(th)
    _, _, J = sigma_jacobian(q, p, p28)
    assert np.max(np.abs(_det(J) - 1.0)) <= 1e-9
    # exactly on the coordinate axes, and hard against the ball boundary
    s = np.sqrt(np.array([1e-8, 1e-4, 0.05, 0.3, 0.63, 0.64 * (1.0 - 1e-9)]))
    zero = np.zeros_like(s)
    for q, p in ((s, zero), (-s, zero), (zero, s), (zero, -s)):
        _, _, J = sigma_jacobian(q, p, p28)
        assert np.max(np.abs(_det(J) - 1.0)) <= 1e-9


def test_jacobian_matches_finite_differences(p28, rng):
    pts = ball_points(rng, make_params(1, p28.r, p28.epsilon), 300, shave=1e-3)
    keep = np.einsum("ij,ij->i", pts, pts) > 0.0025
    q, p = pts[keep, 0], pts[keep, 1]
    _, _, J = sigma_jacobian(q, p, p28)
    step = 1e-6
    fd = np.empty_like(J)
    Qp, Pp = sigma(q + step, p, p28)
    Qm, Pm = sigma(q - step, p, p28)
    fd[:, 0, 0], fd[:, 1, 0] = (Qp - Qm) / (2 * step), (Pp - Pm) / (2 * step)
    Qp, Pp = sigma(q, p + step, p28)
    Qm, Pm = sigma(q, p - step, p28)
    fd[:, 0, 1], fd[:, 1, 1] = (Qp - Qm) / (2 * step), (Pp - Pm) / (2 * step)
    assert np.max(np.abs(fd - J)) < 2e-4
    # the differenced determinant is an independent area oracle
    assert np.max(np.abs(_det(fd) - 1.0)) < 5e-4


def test_midline_rows_of_jacobian(p28):
    # along the diameter the action is constant, so dP/dq vanishes
    q = np.linspace(-0.75, 0.75, 41)
    _, _, J = sigma_jacobian(q, np.zeros_like(q), p28)
    assert np.max(np.abs(J[:, 1, 0])) <= 1e-12
    assert np.all(J[:, 1, 1] > 0.0)  # crossing the midline raises the action


# ---------------------------------------------------------------------------
# enclosed area oracle


def test_enclosed_area_matches(p28):
    for A in (1e-3, 0.05, 0.9, 1.9):
        assert abs(enclosed_area(A, p28) - A) / A < 1e-6


def test_enclosed_area_flags_bad_quadrature(p28, monkeypatch):
    def noisy_arc(eng, A, nvert):
        # every fourth vertex off the circle: only the finest ladder sees it
        th = np.linspace(0.0, np.pi / 2.0, nvert // 4 + 1)
        rad = np.sqrt(A / np.pi) * (1.0 + 0.01 * (np.arange(th.size) % 4 == 1))
        return rad * np.cos(th), rad * np.sin(th)

    monkeypatch.setattr(discmap, "_quarter_arc", noisy_arc)
    with pytest.raises(QuadratureNonConvergent):
        enclosed_area(0.5, p28)


def _ladder_reference(params, A):
    """The oracle's extrapolants from three separately built polylines."""
    eng = curves._engine(params)
    areas = []
    for nvert in (2048, 4096, 8192):
        sched = eng.schedule(np.asarray([A]))
        s = np.linspace(-1.0, 1.0, nvert // 4 + 1)
        al = eng.warp(s, eng.warp_params(sched))[0]
        R = np.sqrt(eng.radius_jet(sched, al))
        xq, yq = R * np.cos(al), R * np.sin(al)
        x = np.concatenate([xq[:-1], -xq[::-1][:-1], -xq[:-1], xq[::-1][:-1]])
        y = np.concatenate([yq[:-1], yq[::-1][:-1], -yq[:-1], -yq[::-1][:-1]])
        areas.append(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    return (4.0 * areas[1] - areas[0]) / 3.0, (4.0 * areas[2] - areas[1]) / 3.0


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_enclosed_area_ladder_is_bitwise_three_polylines(n, r):
    # one curve, strided for the coarser ladders, gives bit for bit what
    # three curves built at 2048, 4096 and 8192 vertices give
    params = make_params(n, r)
    for A in np.geomspace(1e-6, 1.0 - 1e-9, 24) * params.area_max:
        rich1, rich2 = _ladder_reference(params, A)
        if abs(rich2 - rich1) > 1e-7 * A:
            with pytest.raises(QuadratureNonConvergent):
                enclosed_area(A, params)
        else:
            assert enclosed_area(A, params) == float(rich2)


# ---------------------------------------------------------------------------
# the product map and its margins


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_phi_is_componentwise_sigma(n, r, rng):
    params = make_params(n, r)
    pts = ball_points(rng, params, 50)
    img = phi(pts, params)
    for i in range(n):
        Q, P = sigma(pts[:, 2 * i], pts[:, 2 * i + 1], params)
        assert np.array_equal(img[:, 2 * i], Q)
        assert np.array_equal(img[:, 2 * i + 1], P)


def test_phi_memory_is_bounded(rng):
    params = make_params(6, 0.534)
    assert _peak_mib(phi, ball_points(rng, params, 2000), params) <= 200.0


def test_phi_rejects_outside_ball(p28):
    bad = np.array([0.6, 0.0, 0.6, 0.0])  # sum u = 0.72 > 0.64
    with pytest.raises(ValueError):
        phi(bad, p28)


def test_phi_single_point_shape(p37):
    out = phi(np.zeros(6), p37)
    assert out.shape == (6,)
    assert np.allclose(out[0::2], np.pi / 2.0)
    assert np.allclose(out[1::2], p37.c)


def test_phi_symplectic_block_structure(p28, rng):
    # finite-difference the full 2n-dim map and test J^T Omega J = Omega
    pts = ball_points(rng, p28, 20, shave=1e-2)
    dim = 2 * p28.n
    omega = np.zeros((dim, dim))
    for i in range(p28.n):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    step = 1e-6
    for x in pts:
        Jcols = []
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = step
            Jcols.append((phi(x + e, p28) - phi(x - e, p28)) / (2 * step))
        J = np.stack(Jcols, axis=1)
        defect = J.T @ omega @ J - omega
        assert np.max(np.abs(defect)) < 5e-4


# ---------------------------------------------------------------------------
# property-based spot checks


@settings(max_examples=80, deadline=None)
@given(
    ufrac=st.floats(min_value=1e-10, max_value=1.0 - 1e-9),
    theta=st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
def test_random_point_invariants(ufrac, theta):
    p28 = make_params(2, 0.8)
    u = ufrac * p28.r**2
    q, p = np.sqrt(u) * np.cos(theta), np.sqrt(u) * np.sin(theta)
    Q, P = sigma(q, p, p28)
    assert 0.0 < Q < np.pi and 0.0 < P
    assert abs(P - p28.c) <= u / 2.0 + p28.epsilon / 2.0 + 1e-12
    q2, p2 = sigma_inv(Q, P, p28)
    assert abs(q2 - q) <= 1e-9 and abs(p2 - p) <= 1e-9
    Q_J, P_J, J = sigma_jacobian(q, p, p28)
    assert (Q_J, P_J) == (Q, P)
    assert abs(_det(J) - 1.0) <= 1e-9
