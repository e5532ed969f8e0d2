"""Level-curve schedule, superellipse area factor, and Chebyshev helpers."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relpack import ScheduleInfeasible, make_params, shape_schedule
from relpack import curves
from relpack.curves import (
    _engine,
    _fit_exponent,
    _log_area_factor,
    antideriv_nodes,
    area_factor,
    cheb_antideriv,
    cheb_coeffs,
    clenshaw,
    dct_work,
)

_ULP = np.finfo(float).eps

# ---------------------------------------------------------------------------
# area factor


def test_area_factor_closed_forms():
    # m=2 is the ellipse (pi/4), m=1 the diamond (1/2), m->inf the rectangle
    assert area_factor(2.0) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert area_factor(1.0) == pytest.approx(0.5, rel=1e-14)
    assert area_factor(1e6) == pytest.approx(1.0, abs=1e-5)


def test_area_factor_below_one_is_nan():
    # the series is summed for m >= 1 only; a smaller exponent gets NaN
    g = area_factor(np.array([0.0, 0.5, 0.999, 1.0, np.nan]))
    assert np.isnan(g[[0, 1, 2, 4]]).all() and g[3] == 0.5


def _relative(values, refs):
    return np.array([float(abs(v / r - 1)) for v, r in zip(values, refs)])


def test_area_factor_matches_mpmath():
    # 40-digit oracle for Gamma(1+1/m)**2/Gamma(1+2/m) and the m-derivatives
    # of its log, (2/m**2) dpsi and -(4/m**3) dpsi - (2/m**4) dtri, with
    # dpsi = psi(1+2/m) - psi(1+1/m) and dtri = 2 psi'(1+2/m) - psi'(1+1/m)
    mp = pytest.importorskip("mpmath")
    m = np.geomspace(2.0, 512.0, 400)
    jet = _log_area_factor(m, 2)
    with mp.workdps(40):
        refs = []
        for mk in m.tolist():
            p1, p2 = 1 + 1 / mp.mpf(mk), 1 + 2 / mp.mpf(mk)
            dpsi = mp.digamma(p2) - mp.digamma(p1)
            dtri = 2 * mp.polygamma(1, p2) - mp.polygamma(1, p1)
            refs.append((mp.exp(2 * mp.loggamma(p1) - mp.loggamma(p2)),
                         2 / mk**2 * dpsi,
                         -4 / mk**3 * dpsi - 2 / mk**4 * dtri))
        refs = list(zip(*refs))
        assert _relative(area_factor(m), refs[0]).max() <= 1e-15
        for order in (1, 2):
            assert _relative(jet[order], refs[order]).max() <= 6 * _ULP
    # the first order is the second's leading part; a few points are summed
    # in floats, with the bits of the batch
    assert all(np.array_equal(x, y) for x, y in zip(_log_area_factor(m, 1), jet))
    for k in (0, 57, 399):
        assert all(np.array_equal(x, y[k]) for x, y in zip(_log_area_factor(m[k], 2), jet))
    assert np.array_equal(_log_area_factor(m[:8], 2)[2], jet[2][:8])


def test_area_factor_matches_scipy():
    sp = pytest.importorskip("scipy.special")
    m = np.geomspace(2.0, 512.0, 400)
    p1, p2 = 1.0 + 1.0 / m, 1.0 + 2.0 / m
    dpsi = sp.digamma(p2) - sp.digamma(p1)
    dtri = 2.0 * sp.polygamma(1, p2) - sp.polygamma(1, p1)
    g1 = (2.0 / m**2) * dpsi
    g2 = -(4.0 / m**3) * dpsi - (2.0 / m**4) * dtri
    ref = np.exp(2.0 * sp.gammaln(p1) - sp.gammaln(p2))
    assert np.max(np.abs(area_factor(m) / ref - 1.0)) <= 1e-15
    # scipy's difference of digammas cancels as m grows: against the oracle
    # above it is 1.0e-13 off near m = 460, so the derivatives agree to that
    _, d1, d2 = _log_area_factor(m, 2)
    assert np.max(np.abs(d1 / g1 - 1.0)) <= 2e-13
    assert np.max(np.abs(d2 / g2 - 1.0)) <= 2e-13


@pytest.mark.parametrize("g", [0.7854, 0.8, 0.9, 0.99, 0.999, 0.99999])
def test_fit_exponent_solves_the_area_factor(g):
    m = _fit_exponent(g)
    assert 2.0 < m < 512.0
    assert area_factor(m) == pytest.approx(g, rel=4 * _ULP)


def test_area_factor_monotone():
    m = np.linspace(1.0, 60.0, 300)
    g = area_factor(m)
    assert np.all(np.diff(g) > 0.0)
    assert np.all((g > 0.49) & (g < 1.0))


def test_area_factor_matches_quadrature():
    # independent oracle: quarter area in polar form via Gauss-Legendre,
    # area = int_0^{pi/2} rho^2/2 dtheta with rho = (cos^m + sin^m)^(-1/m)
    nodes, weights = np.polynomial.legendre.leggauss(400)
    theta = (nodes + 1.0) * (np.pi / 4.0)
    for m in (2.5, 4.0, 11.0, 40.0):
        rho2 = (np.cos(theta) ** m + np.sin(theta) ** m) ** (-2.0 / m)
        area = (np.pi / 4.0) * np.sum(weights * rho2 / 2.0)
        assert area_factor(m) == pytest.approx(area, rel=1e-12)


# ---------------------------------------------------------------------------
# Chebyshev helpers


def _nodes(M):
    return np.cos(np.pi * np.arange(M + 1) / M)


def test_clenshaw_reproduces_exp():
    xn = _nodes(40)
    c = cheb_coeffs(np.exp(xn))
    xs = np.linspace(-1.0, 1.0, 257)
    assert np.max(np.abs(clenshaw(c, xs) - np.exp(xs))) < 1e-14
    # bitwise the plain recurrence b_k = c_k + 2x*b_{k+1} - b_{k+2}
    b1 = b2 = np.zeros_like(xs)
    for k in range(c.size - 1, 0, -1):
        b1, b2 = c[k] + 2.0 * xs * b1 - b2, b1
    assert np.array_equal(clenshaw(c, xs), c[0] + xs * b1 - b2)


def test_clenshaw_few_points_match_the_batch():
    # a few points are summed in Python floats: bitwise what the batch gives
    rng = np.random.default_rng(7)
    c = np.asfortranarray(rng.standard_normal((20, 300)) * 0.97 ** np.arange(300))
    xs = np.concatenate([[-1.0, 1.0, 0.0, -0.0], rng.uniform(-1.0, 1.0, 16)])
    full = clenshaw(c, xs)
    for k in range(1, 9):
        assert np.array_equal(clenshaw(c[-k:], xs[-k:]), full[-k:])
        assert np.array_equal(clenshaw(c[k], xs[k]), full[k])
    assert np.array_equal(clenshaw(c[0], xs[:5]), clenshaw(c[0], xs)[:5])
    grid = xs[:6].reshape(2, 3)
    assert np.array_equal(clenshaw(c[0], grid), clenshaw(c[0], xs)[:6].reshape(2, 3))


def test_antiderivative_of_exp():
    xn = _nodes(40)
    c = cheb_coeffs(np.exp(xn))
    b = cheb_antideriv(c)
    xs = np.linspace(-1.0, 1.0, 257)
    # convention: the antiderivative vanishes at x = -1
    assert abs(clenshaw(b, np.asarray(-1.0))) < 1e-15
    exact = np.exp(xs) - np.exp(-1.0)
    assert np.max(np.abs(clenshaw(b, xs) - exact)) < 1e-14
    # on the integrand's own nodes, through one DCT-I
    assert np.max(np.abs(antideriv_nodes(b) - (np.exp(xn) - np.exp(-1.0)))) < 1e-14


def _dct1_cosine_sum(x):
    """DCT-I by its definition, ``y_k = x_0 + (-1)**k x_M + 2 sum_{0<j<M}
    x_j cos(pi j k / M)``."""
    M = x.shape[-1] - 1
    j = np.arange(M + 1)
    w = np.full(M + 1, 2.0)
    w[[0, -1]] = 1.0
    return (x * w) @ np.cos(np.pi * np.outer(j, j) / M)


def test_cheb_transforms_match_cosine_sums():
    rng = np.random.default_rng(11)
    M = 12
    F = rng.standard_normal((5, M + 1))
    ref = _dct1_cosine_sum(F) / M
    ref[:, [0, -1]] *= 0.5
    assert np.max(np.abs(cheb_coeffs(F) - ref)) <= 1e-14
    # node values sum_k b_k T_k(x_j), with T_k(x_j) = cos(pi k j / M)
    b = rng.standard_normal((5, M + 2))
    T = np.cos(np.pi * np.outer(np.arange(M + 1), np.arange(M + 2)) / M)
    assert np.max(np.abs(antideriv_nodes(b) - b @ T.T)) <= 1e-14


@pytest.mark.parametrize("rows, M", [(339, 192), (132, 492)])
def test_cheb_transforms_match_scipy(rows, M):
    # the row blocks of n=2 and n=6 sweeps, bitwise
    fft = pytest.importorskip("scipy.fft")
    rng = np.random.default_rng(M)
    F = rng.standard_normal((rows, M + 1))
    ref = fft.dct(F, type=1, axis=-1)
    ref /= M
    ref[:, 0] *= 0.5
    ref[:, -1] *= 0.5
    assert np.array_equal(cheb_coeffs(F), ref)
    assert np.array_equal(cheb_coeffs(F, dct_work(M, rows)), ref)
    b = np.asfortranarray(rng.standard_normal((rows, M + 2)))  # as swept
    c = b[:, : M + 1].copy()
    c[:, [0, -1]] *= 2.0
    ref = fft.dct(c, type=1, axis=-1)
    ref *= 0.5
    j = np.arange(M + 1)
    ref += b[:, M + 1 :] * ((-1.0) ** j * np.cos(np.pi * j / M))
    assert np.array_equal(antideriv_nodes(b, dct_work(M, rows)), ref)


def test_cheb_transform_rows_do_not_depend_on_the_block():
    # 339 rows take several of the transform's work slices
    rng = np.random.default_rng(5)
    M = 192
    F = rng.standard_normal((339, M + 1))
    b = np.asfortranarray(rng.standard_normal((339, M + 2)))
    c, nodes = cheb_coeffs(F, dct_work(M, 339)), antideriv_nodes(b, dct_work(M, 339))
    for i in (0, 83, 84, 200, 338):
        assert np.array_equal(cheb_coeffs(F[i]), c[i])
        assert np.array_equal(antideriv_nodes(b[i]), nodes[i])
    # written over its input, as the sweep build does
    G = F.copy()
    assert np.array_equal(cheb_coeffs(G, dct_work(M, 339), G), c) and np.array_equal(G, c)


def test_cheb_batch_axis():
    xn = _nodes(24)
    F = np.stack([np.cos(xn), np.sin(xn), xn**3])
    c = cheb_coeffs(F)
    xs = np.linspace(-1.0, 1.0, 33)
    vals = clenshaw(c[:, None, :], xs[None, :])
    assert vals.shape == (3, 33)
    assert np.allclose(vals[0], np.cos(xs), atol=1e-14)
    assert np.allclose(vals[2], xs**3, atol=1e-14)


# ---------------------------------------------------------------------------
# schedule


def test_schedule_scalar_and_array(p28):
    h, a, m = shape_schedule(0.5, p28)
    assert isinstance(h, float) and isinstance(a, float) and isinstance(m, float)
    harr, aarr, marr = shape_schedule(np.array([0.5, 1.0]), p28)
    assert harr.shape == (2,)
    assert harr[0] == h and aarr[0] == a and marr[0] == m


def test_schedule_rejects_out_of_range(p28):
    for bad in (0.0, -1.0, p28.area_max, p28.area_max * 1.01, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            shape_schedule(bad, p28)
        with pytest.raises(ValueError):
            shape_schedule(np.array([0.5, bad]), p28)


def test_schedule_monotone_and_banded(p28):
    A = np.geomspace(1e-7 * p28.area_max, (1.0 - 1e-12) * p28.area_max, 4000)
    h, a, m = shape_schedule(A, p28)
    assert np.all(np.diff(h) > 0.0)
    assert np.all(np.diff(a) > 0.0)
    assert np.all(np.diff(m) >= 0.0)
    # half-height stays under both the disc radius and the collar cap
    assert np.all(h < np.sqrt(A / np.pi))
    assert np.all(h < A / (2.0 * np.pi) + p28.epsilon / 2.0)
    # half-width keeps a corner margin from the vertical walls
    eng = _engine(p28)
    assert a.max() < np.pi / 2.0 - eng.delta_q


def test_level_curve_record(p28):
    h, a, m = shape_schedule(1.2, p28)
    assert all(type(x) is float for x in (h, a, m))
    # the half-width is solved exactly from the area identity
    area = 4.0 * a * h * area_factor(m)
    assert area == pytest.approx(1.2, rel=1e-13)
    assert m >= 2.0


@pytest.mark.parametrize(
    "n,r,m_end",
    [(2, 0.80, 26.157), (2, 0.81, 67.209), (3, 0.70, 35.581)],
)
def test_endpoint_exponent_regression(n, r, m_end):
    # regression pins for the fitted outermost exponent
    eng = _engine(make_params(n, r))
    assert eng.m_end == pytest.approx(m_end, rel=5e-4)
    assert eng.ncheb >= 192


def _is_7_smooth(k):
    for p in (2, 3, 5, 7):
        while k % p == 0:
            k //= p
    return k == 1


@pytest.mark.parametrize(
    "n, r, ncheb",
    [(2, 0.8, 192), (3, 0.7, 192), (4, 0.63, 210), (6, 0.534, 500),
     (8, 0.47, 250), (3, 0.705, 336)],
)
def test_series_length_is_fft_friendly(n, r, ncheb):
    # the DCT-I is a real FFT of 2*ncheb points: the length is the smallest
    # at or above the resolution rule with no prime factor above 7
    eng = _engine(make_params(n, r))
    need = int(max(192, 2.5 * eng.m_end + 48))
    assert eng.ncheb >= need
    assert _is_7_smooth(2 * eng.ncheb)
    assert not any(_is_7_smooth(2 * k) for k in range(need, eng.ncheb))
    assert eng.ncheb == ncheb


def test_small_curves_are_round(p28):
    h, a, m = shape_schedule(1e-8 * p28.area_max, p28)
    assert m == pytest.approx(2.0, abs=1e-8)
    assert a == pytest.approx(h, rel=1e-6)


def test_infeasible_collar_raises():
    # a very thin collar forces the outermost curve to fill more than its
    # bounding box, which no exponent can reach
    p = make_params(2, 0.8, epsilon=1e-8)
    with pytest.raises(ScheduleInfeasible):
        shape_schedule(1.0, p)


def test_infeasible_near_bound_blames_the_height_blend():
    # an area factor of 1.00076 is needed here: the loss of the height blend
    # at the outermost curve exceeds the collar slack, and the exponent cap
    # plays no part
    p = make_params(2, np.sqrt(2.0 / 3.0) * (1.0 - 1e-4))
    with pytest.raises(ScheduleInfeasible) as info:
        shape_schedule(1.0, p)
    assert "height blend" in str(info.value)
    assert "exponent cap" not in str(info.value)


def test_infeasible_exponent_names_the_cap(monkeypatch):
    # n=2, r=0.8 needs m = 26.16 at its outermost curve
    monkeypatch.setattr(curves, "_M_MAX", 20.0)
    with pytest.raises(ScheduleInfeasible) as info:
        curves._CurveEngine(make_params(2, 0.8))
    assert re.fullmatch(
        r"outermost curve needs area factor 0\.9\d{8}, beyond the exponent "
        r"cap 20; epsilon=0\.0\d+ is too small",
        str(info.value),
    )


# ---------------------------------------------------------------------------
# derivatives of the schedule and the radius field


def _central(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_schedule_rates_match_fd(p28):
    eng = _engine(p28)
    A = np.array([1e-4, 3e-3, 0.05, 0.3, 0.9, 1.6, 1.95])
    h, a, m, hp, ap, mp = eng.schedule(A, 1)
    step = 1e-7 * p28.area_max
    # hybrid tolerance: relative where the derivative is live, with an
    # absolute allowance for differencing noise on the flat stretches
    for which, anal in ((0, hp), (1, ap), (2, mp)):
        fd = _central(lambda x: eng.schedule(x)[which], A, step)
        assert np.all(np.abs(fd - anal) <= 1e-5 * np.abs(anal) + 5e-6)


def test_schedule_jet_second_derivatives(p28):
    eng = _engine(p28)
    A = np.array([0.01, 0.2, 0.8, 1.7])
    hpp, app, mpp = eng.schedule(A, 2)[6:]
    step = 2e-5 * p28.area_max
    for which, anal in ((0, hpp), (1, app), (2, mpp)):
        f0 = eng.schedule(A)[which]
        fp = eng.schedule(A + step)[which]
        fm = eng.schedule(A - step)[which]
        fd = (fp - 2.0 * f0 + fm) / step**2
        assert np.all(np.abs(fd - anal) <= 2e-3 * np.abs(anal) + 2e-3)


def test_radius_field_axes_and_growth(p28):
    eng = _engine(p28)
    A = np.array([0.02, 0.4, 1.3])
    h, a, m = eng.schedule(A)
    # on the axes the polar radius is the half-axis itself
    V0 = eng.radius_jet((h, a, m), np.zeros_like(A))
    V1 = eng.radius_jet((h, a, m), np.full_like(A, np.pi / 2.0))
    assert np.allclose(V0, a**2, rtol=1e-12)
    assert np.allclose(V1, h**2, rtol=1e-12)
    # nesting: the radius field grows with area at every angle
    alpha = np.linspace(0.0, np.pi / 2.0, 181)
    _, VA = eng.radius_jet(eng.schedule(A[:, None], 1), alpha[None, :], 1)
    assert VA.min() > 0.0


def test_radius_jet_matches_fd(p28):
    eng = _engine(p28)
    A = np.array([0.05, 0.6, 1.4, 1.9])
    alpha = np.array([0.15, 0.7, 1.1, 1.45])

    def radius(A, alpha):
        return eng.radius_jet(eng.schedule(A), alpha)

    V, V_A, V_AA, V_al = eng.radius_jet(eng.schedule(A, 2), alpha, 2, angle=True)
    assert np.allclose(V, radius(A, alpha), rtol=1e-13)
    hA = 1e-6
    fdA = _central(lambda x: radius(x, alpha), A, hA)
    assert np.max(np.abs(fdA - V_A) / np.abs(V_A)) < 1e-5
    hA = 5e-5  # wider step for the second difference, to beat roundoff
    fdAA = (
        radius(A + hA, alpha) - 2.0 * radius(A, alpha) + radius(A - hA, alpha)
    ) / hA**2
    assert np.max(np.abs(fdAA - V_AA) / np.maximum(np.abs(V_AA), 1e-2)) < 2e-3
    hal = 1e-6
    fdal = _central(lambda x: radius(A, x), alpha, hal)
    assert np.max(np.abs(fdal - V_al) / np.maximum(np.abs(V_al), 1e-6)) < 1e-4


@pytest.mark.parametrize("n, r", [(2, 0.8), (3, 0.7), (6, 0.534)])
def test_jets_share_leading_outputs_bitwise(n, r):
    # one implementation per quantity: a higher order only appends terms
    eng = _engine(make_params(n, r))
    A = np.geomspace(1e-6, 0.999, 40) * eng.area_max
    alpha = np.linspace(0.0, np.pi / 2.0, 40)
    sched = [eng.schedule(A, order) for order in (0, 1, 2)]
    assert [len(s) for s in sched] == [3, 6, 9]
    for lo, hi in ((0, 1), (0, 2), (1, 2)):
        for x, y in zip(sched[lo], sched[hi]):
            assert np.array_equal(x, y)
    V0 = eng.radius_jet(sched[0], alpha)
    V1, VA1 = eng.radius_jet(sched[1], alpha, 1)
    V2, VA2, VAA2 = eng.radius_jet(sched[2], alpha, 2)
    assert np.array_equal(V0, V1) and np.array_equal(V0, V2)
    assert np.array_equal(VA1, VA2)
    # the angle derivative appends, and is the same at every order
    V3, Val3 = eng.radius_jet(sched[0], alpha, angle=True)
    V4, VA4, Val4 = eng.radius_jet(sched[1], alpha, 1, angle=True)
    V5, VA5, VAA5, Val5 = eng.radius_jet(sched[2], alpha, 2, angle=True)
    assert all(np.array_equal(V0, x) for x in (V3, V4, V5))
    assert np.array_equal(VA1, VA4) and np.array_equal(VA1, VA5)
    assert np.array_equal(VAA2, VAA5)
    assert np.array_equal(Val3, Val4) and np.array_equal(Val3, Val5)
    sweep0 = eng.build_sweep(sched[1])
    sweep1 = eng.build_sweep(sched[2], 1)
    assert len(sweep0) == 3 and len(sweep1) == 5
    for x, y in zip(sweep0[:2] + sweep0[2], sweep1[:2] + sweep1[2]):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_radius_matches_long_double(n, r):
    # the log-sum kernel against (|cos/a|**m + |sin/h|**m)**(-2/m) in long
    # double on the same schedule, from tiny to all but outermost curves and
    # on and within 1e-14 of both axes, where the logs of cos and sin blow up
    eng = _engine(make_params(n, r))
    A = eng.area_max * np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-9])
    alpha = np.array([0.0, 1e-14, 1e-8, 0.3, 0.7, 1.2, np.pi / 2.0 - 1e-8,
                      np.pi / 2.0 - 1e-14, np.pi / 2.0])
    A, alpha = (x.ravel() for x in np.meshgrid(A, alpha, indexing="ij"))
    h, a, m = (x.astype(np.longdouble) for x in eng.schedule(A))
    al = alpha.astype(np.longdouble)
    ref = (np.abs(np.cos(al) / a) ** m + np.abs(np.sin(al) / h) ** m) ** (-2.0 / m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        V, V_A, V_AA, V_al = eng.radius_jet(eng.schedule(A, 2), alpha, 2, angle=True)
    assert np.max(np.abs(V - ref) / ref) <= 1e-14
    for x in (V_A, V_AA, V_al):
        assert np.all(np.isfinite(x))
    assert np.all(V_A > 0.0)
    # on the axes the angle derivative vanishes by symmetry
    assert np.all(V_al[alpha == 0.0] == 0.0)


@pytest.mark.parametrize("order, bound_mib", [(0, 4.5), (1, 6.5)])
def test_sweep_build_temporaries(order, bound_mib):
    # the node grid is evaluated in place, in a handful of row-block
    # buffers: an allocating kernel peaked at 9.1 (order 0) and 13.1 MiB
    # (order 1) beyond the returned coefficients on these 2000 rows.  The
    # DCT work buffers, 0.5 MiB, are allocated by each call and counted.
    eng = _engine(make_params(2, 0.8))
    sched = eng.schedule(np.geomspace(1e-6, 0.999, 2000) * eng.area_max, order + 1)
    eng.build_sweep(sched, order)  # warm-up: numpy caches its FFT plans
    tracemalloc.start()
    try:
        out = eng.build_sweep(sched, order)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 3 + 2 * order
    assert (peak - current) / 2**20 <= bound_mib


@settings(max_examples=60, deadline=None)
@given(frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-9))
def test_level_curve_invariants(frac):
    p = make_params(2, 0.8)
    A = frac * p.area_max
    h, a, m = shape_schedule(A, p)
    assert 0.0 < h <= min(
        math.sqrt(A / math.pi), A / (2.0 * math.pi) + p.epsilon / 2.0
    )
    assert 0.0 < a < math.pi / 2.0
    area = 4.0 * a * h * area_factor(m)
    assert area == pytest.approx(A, rel=1e-12)


# ---------------------------------------------------------------------------
# closed-form sweep fraction


def _tau_reference(mp, A, row, alpha):
    """``tau = I + A (I_z z_A + I_p p_A)`` at 40 digits, from the float jet.

    The reference reflects: above ``z = 1/2`` it takes ``1 - I_{1-z}`` with
    ``1 - z`` from ``log(1 - z)``, where ``betainc`` at ``z`` would round
    ``z`` to 1.  ``I_p`` is a numerical derivative of mpmath's ``betainc``.
    """
    with mp.workdps(40):
        h, a, m, h_A, a_A, m_A = (mp.mpf(float(x)) for x in row)
        A, alpha, p = mp.mpf(float(A)), mp.mpf(float(alpha)), 1 / m
        ell = mp.log(a / h) + mp.log(mp.tan(alpha))
        L = m / 2 * ell
        log_z, log_1mz = -mp.log1p(mp.exp(-2 * L)), -mp.log1p(mp.exp(2 * L))
        z_small = mp.exp(log_z if L <= 0 else log_1mz)

        def I(q):
            frac = mp.betainc(q, q, 0, z_small, regularized=True)
            return frac if L <= 0 else 1 - frac

        L_A = m_A / 2 * ell + m / 2 * (a_A / a - h_A / h)
        I_z_z_A = 2 * mp.exp(p * (log_z + log_1mz)) / mp.beta(p, p) * L_A
        return float(I(p) + A * (I_z_z_A - mp.diff(I, p) * m_A / m**2))


def _tau_points(eng, count, rng):
    """Areas over the whole range and angles from 1e-300 to the float pi/2,
    the nearest a float angle comes to the top end."""
    A = eng.area_max * np.concatenate(
        [np.geomspace(1e-8, 1.0 - 1e-9, count // 2), rng.random(count - count // 2)]
    )
    k = count // 4
    alpha = np.concatenate(
        [
            [1e-300, np.pi / 2.0, np.nextafter(np.pi / 2.0, 0.0)],
            np.geomspace(1e-300, 0.1, k),
            np.pi / 2.0 - np.geomspace(1e-15, 0.1, k),
            rng.uniform(0.0, np.pi / 2.0, count - 2 * k - 3),
        ]
    )
    return rng.permutation(A), rng.permutation(alpha)


@pytest.mark.parametrize(
    "n, r", [(2, 0.8), (2, 0.81), (3, 0.7), (4, 0.63), (6, 0.534)]
)
def test_sweep_fraction_matches_mpmath(n, r):
    mp = pytest.importorskip("mpmath")
    eng = _engine(make_params(n, r))
    A, alpha = _tau_points(eng, 200, np.random.default_rng(n * 100 + int(r * 100)))
    sched = eng.schedule(A, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = eng.sweep_fraction(A, sched, alpha)
    ref = np.array([_tau_reference(mp, *x) for x in zip(A, zip(*sched), alpha)])
    assert np.max(np.abs(tau - ref)) <= 1e-15
    small = ref < 1e-3
    assert small.sum() > 40
    assert np.max(np.abs(tau[small] / ref[small] - 1.0)) <= 1e-12
    # a few rows are summed in floats, with the bits of the batch
    for k in (slice(0, 1), slice(3, 11)):
        one = eng.sweep_fraction(A[k], tuple(x[k] for x in sched), alpha[k])
        assert np.array_equal(one, tau[k])


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_sweep_fraction_at_the_midline_is_twice_the_radius_rate(n, r):
    # d tau/d alpha = 2 V_A, so tau/alpha -> 2 V_A(A, 0) as alpha -> 0
    eng = _engine(make_params(n, r))
    A = eng.area_max * np.geomspace(1e-8, 1.0 - 1e-9, 300)
    sched = eng.schedule(A, 1)
    tau = eng.sweep_fraction(A, sched, np.full(A.size, 1e-300))
    _, V_A = eng.radius_jet(sched, np.zeros(A.size), 1)
    assert np.max(np.abs(tau / 1e-300 / (2.0 * V_A) - 1.0)) <= 1e-12
    # and the whole quarter sweep is 1, to the float pi/2's rounding
    top = eng.sweep_fraction(A, sched, np.full(A.size, np.pi / 2.0))
    assert np.max(np.abs(top - 1.0)) <= 1e-16


# ---------------------------------------------------------------------------
# sweep-angle solve


def _solve_grid(n, r):
    """Areas across the whole range, sweep fractions including both ends."""
    eng = _engine(make_params(n, r))
    am = eng.area_max
    A = np.concatenate(
        [
            np.geomspace(5e-4, 5e-3, 40),  # transition regime
            am - np.geomspace(1e-6, 1e-13, 12),
            np.geomspace(1e-8, 0.999, 20) * am,
        ]
    )
    rng = np.random.default_rng(7)
    tau = np.concatenate([[0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0], rng.random(20)])
    A, tau = (x.ravel() for x in np.meshgrid(A, tau, indexing="ij"))
    return eng, A, tau


_SOLVE_CASES = [(2, 0.8), (3, 0.7), (4, 0.63), (6, 0.534)]


@pytest.mark.parametrize("n, r", _SOLVE_CASES)
def test_solve_angle_residual_at_roundoff(n, r):
    eng, A, tau = _solve_grid(n, r)
    sched = eng.schedule(A, 1)
    b, total, wp, bracket = eng.build_sweep(sched, 0, tau)
    _, s = eng.solve_angle(sched, b, total, wp, tau, bracket)
    assert np.max(np.abs(clenshaw(b, s) - tau * total)) <= 2e-15


@pytest.mark.parametrize("n, r", _SOLVE_CASES)
def test_solve_angle_hermite_start(n, r, monkeypatch):
    # the start alone, so a poor start cannot hide behind the Newton steps
    eng, A, tau = _solve_grid(n, r)
    sched = eng.schedule(A, 1)
    b, total, wp, bracket = eng.build_sweep(sched, 0, tau)
    monkeypatch.setattr(curves, "_NEWTON_STEPS", 0)
    _, s = eng.solve_angle(sched, b, total, wp, tau, bracket)
    assert np.max(np.abs(clenshaw(b, s) - tau * total)) <= 1e-7


@pytest.mark.parametrize("n, r", _SOLVE_CASES)
def test_solved_angle_has_its_closed_form_fraction(n, r):
    # the series and the closed form are independent; they differ most in
    # the band of areas where the fixed-length series is not resolved
    # (1.4e-11 at n=3, A/A_max = 4e-4)
    eng, A, tau = _solve_grid(n, r)
    sched = eng.schedule(A, 1)
    b, total, wp, bracket = eng.build_sweep(sched, 0, tau)
    alpha, _ = eng.solve_angle(sched, b, total, wp, tau, bracket)
    off = alpha > 0.0
    closed = eng.sweep_fraction(A[off], tuple(x[off] for x in sched), alpha[off])
    diff = np.abs(closed - tau[off])
    assert np.median(diff) <= 1e-14 and np.max(diff) <= 3e-11


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_sweep_build_brackets_from_its_row_blocks(n, r):
    # the bracket the build takes from each row-major block is the one a
    # pass of `antideriv_nodes` over the whole column-major result gives
    eng, A, tau = _solve_grid(n, r)
    assert len(eng.row_blocks(A.size)) > 1
    sched = eng.schedule(A, 2)
    b, total, wp, bracket = eng.build_sweep(sched, 0, tau)
    assert b.flags.f_contiguous
    M = eng.ncheb
    F = antideriv_nodes(b)
    F[:, 0], F[:, -1] = total, 0.0
    below = np.sum(F < (tau * total)[:, None], axis=-1)
    j = M + 1 - np.clip(below, 1, M)
    rows = np.arange(A.size)
    for x, y in zip(bracket, (j, F[rows, j], F[rows, j - 1])):
        assert np.array_equal(x, y)
    # the same series without a bracket, and the same bracket at order 1
    plain = eng.build_sweep(sched)
    assert np.array_equal(plain[0], b) and np.array_equal(plain[1], total)
    *_, bracket1 = eng.build_sweep(sched, 1, tau)
    assert all(np.array_equal(x, y) for x, y in zip(bracket, bracket1))


def test_solve_angle_series_passes(p28, monkeypatch):
    eng = _engine(p28)
    rng = np.random.default_rng(3)
    A = rng.uniform(1e-6, 0.999, 64) * eng.area_max
    tau = rng.random(64)
    sched = eng.schedule(A, 1)
    passes = []

    def counting(name):
        fn = getattr(curves, name)

        def wrapped(*args):
            passes.append(name)
            return fn(*args)

        return wrapped

    for name in ("antideriv_nodes", "clenshaw"):
        monkeypatch.setattr(curves, name, counting(name))
    # the node values are taken once, in the build's one row block; the
    # solve then makes two series passes
    assert len(eng.row_blocks(64)) == 1
    b, total, wp, bracket = eng.build_sweep(sched, 0, tau)
    eng.solve_angle(sched, b, total, wp, tau, bracket)
    assert passes == ["antideriv_nodes", "clenshaw", "clenshaw"]
