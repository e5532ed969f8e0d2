"""Level-curve schedule, superellipse area factor, sweep fraction and angle solve."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relpack import ScheduleInfeasible, make_params, shape_schedule
from relpack import curves, discmap
from relpack.curves import _engine, _fit_exponent, _log_area_factor, area_factor

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

    V, V_A, V_al = eng.radius_jet(eng.schedule(A, 2), alpha, 1, angle=True)
    assert np.allclose(V, radius(A, alpha), rtol=1e-13)
    hA = 1e-6
    fdA = _central(lambda x: radius(x, alpha), A, hA)
    assert np.max(np.abs(fdA - V_A) / np.abs(V_A)) < 1e-5
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
    V2, VA2 = eng.radius_jet(sched[2], alpha, 1)
    assert np.array_equal(V0, V1) and np.array_equal(V0, V2)
    assert np.array_equal(VA1, VA2)
    # the angle derivative appends, and is the same at every order
    V3, Val3 = eng.radius_jet(sched[0], alpha, angle=True)
    V4, VA4, Val4 = eng.radius_jet(sched[1], alpha, 1, angle=True)
    V5, VA5, Val5 = eng.radius_jet(sched[2], alpha, 1, angle=True)
    assert all(np.array_equal(V0, x) for x in (V3, V4, V5))
    assert np.array_equal(VA1, VA4) and np.array_equal(VA1, VA5)
    assert np.array_equal(Val3, Val4) and np.array_equal(Val3, Val5)
    al = alpha[1:]  # the sweep fraction takes alpha > 0
    tau0 = eng.sweep_fraction(A[1:], tuple(x[1:] for x in sched[1]), al)
    tau1 = eng.sweep_fraction(A[1:], tuple(x[1:] for x in sched[2]), al, 1)
    assert len(tau0) == 2 and len(tau1) == 3
    assert all(np.array_equal(x, y) for x, y in zip(tau0, tau1))


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
        V, V_A, V_al = eng.radius_jet(eng.schedule(A, 2), alpha, 1, angle=True)
    assert np.max(np.abs(V - ref) / ref) <= 1e-14
    for x in (V_A, V_al):
        assert np.all(np.isfinite(x))
    assert np.all(V_A > 0.0)
    # on the axes the angle derivative vanishes by symmetry
    assert np.all(V_al[alpha == 0.0] == 0.0)


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
    """``(tau, 1 - tau, tau_A)`` at 40 digits, from the float second-order jet.

    ``tau = I + A (I_z z_A + I_p p_A)``, taken literally.  The reference
    reflects: above ``z = 1/2`` it takes ``1 - I_{1-z}`` with ``1 - z``
    from ``log(1 - z)``, where ``betainc`` at ``z`` would round ``z`` to 1.
    ``I_p`` is a numerical derivative of mpmath's ``betainc``, and
    ``tau_A`` one of ``tau`` in the area, with ``(h, a, m)`` and their
    first derivatives replaced by the jet's quadratic Taylor model around
    ``A``.
    """
    with mp.workdps(40):
        h0, a0, m0, hA, aA, mA, hAA, aAA, mAA = (mp.mpf(float(x)) for x in row)
        A0, log_tan = mp.mpf(float(A)), mp.log(mp.tan(mp.mpf(float(alpha))))

        def tau(Ax):
            d = Ax - A0
            h, a, m = (x + d * (x1 + d * x2 / 2)
                       for x, x1, x2 in ((h0, hA, hAA), (a0, aA, aAA), (m0, mA, mAA)))
            h_A, a_A, m_A = hA + d * hAA, aA + d * aAA, mA + d * mAA
            p = 1 / m
            ell = mp.log(a / h) + log_tan
            L = m / 2 * ell
            log_z, log_1mz = -mp.log1p(mp.exp(-2 * L)), -mp.log1p(mp.exp(2 * L))
            z_small = mp.exp(log_z if L <= 0 else log_1mz)

            def I(q):
                frac = mp.betainc(q, q, 0, z_small, regularized=True)
                return frac if L <= 0 else 1 - frac

            L_A = m_A / 2 * ell + m / 2 * (a_A / a - h_A / h)
            I_z_z_A = 2 * mp.exp(p * (log_z + log_1mz)) / mp.beta(p, p) * L_A
            return I(p) + Ax * (I_z_z_A - mp.diff(I, p) * m_A / m**2)

        t = tau(A0)
        return float(t), float(1 - t), float(mp.diff(tau, A0))


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
    sched = eng.schedule(A, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau, rest, tau_A = eng.sweep_fraction(A, sched, alpha, 1)
    ref, ref_rest, ref_A = np.array(
        [_tau_reference(mp, *x) for x in zip(A, zip(*sched), alpha)]).T
    assert np.max(np.abs(tau - ref)) <= 1e-15
    assert np.max(np.abs(rest - ref_rest)) <= 1e-15
    # A tau_A is O(1); it vanishes on round curves, so it is held to an
    # absolute bound, and relative to tau where tau is small
    err_A = A * np.abs(tau_A - ref_A)
    assert np.max(err_A) <= 1e-15
    small = ref < 1e-3
    assert small.sum() > 40
    assert np.max(np.abs(tau[small] / ref[small] - 1.0)) <= 1e-12
    assert np.max(err_A[small] / ref[small]) <= 1e-12
    # and 1 - tau near the top, where the angle solve reads it
    top = ref_rest < 1e-3
    assert top.sum() > 40
    assert np.max(np.abs(rest[top] / ref_rest[top] - 1.0)) <= 1e-12
    # a few rows are summed in floats, with the bits of the batch
    for k in (slice(0, 1), slice(3, 11)):
        one = eng.sweep_fraction(A[k], tuple(x[k] for x in sched), alpha[k], 1)
        assert all(np.array_equal(x, y[k]) for x, y in zip(one, (tau, rest, tau_A)))


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_sweep_fraction_at_the_midline_is_twice_the_radius_rate(n, r):
    # d tau/d alpha = 2 V_A, so tau/alpha -> 2 V_A(A, 0) as alpha -> 0
    eng = _engine(make_params(n, r))
    A = eng.area_max * np.geomspace(1e-8, 1.0 - 1e-9, 300)
    sched = eng.schedule(A, 1)
    tau, _ = eng.sweep_fraction(A, sched, np.full(A.size, 1e-300))
    _, V_A = eng.radius_jet(sched, np.zeros(A.size), 1)
    assert np.max(np.abs(tau / 1e-300 / (2.0 * V_A) - 1.0)) <= 1e-12
    # and the whole quarter sweep is 1, to the float pi/2's rounding
    top, rest = eng.sweep_fraction(A, sched, np.full(A.size, np.pi / 2.0))
    assert np.max(np.abs(top - 1.0)) <= 1e-16 and np.max(rest) <= 1e-16


# The next tests keep the names of the Chebyshev series tests whose
# properties the closed form now carries: the antiderivative, the batch
# axis, rows independent of their block, the float path of a few points,
# and bounded temporaries.


def test_antiderivative_of_exp():
    # tau is the antiderivative in alpha of 2 V_A that vanishes at alpha =
    # 0.  A composite Gauss rule graded towards the corner tan(alpha) = h/a,
    # where V_A peaks sharply at large m, takes the integral to roundoff;
    # the worst difference, 3.3e-12, is at n=2, A/A_max = 1e-3
    xg, wg = np.polynomial.legendre.leggauss(30)
    grade = np.geomspace(1.0, 1e-14, 60)
    for n, r in [(2, 0.8), (6, 0.534)]:
        eng = _engine(make_params(n, r))
        for frac in (1e-6, 1e-3, 0.05, 0.3, 0.7, 0.999):
            A = np.array([frac * eng.area_max])
            sched = eng.schedule(A, 1)
            corner = math.atan(sched[0][0] / sched[1][0])
            cuts = np.concatenate([corner * (1.0 - grade), [corner],
                                   corner + (np.pi / 2.0 - corner) * grade[::-1]])
            for alpha in (0.1, 0.5, 1.0, 1.4, np.pi / 2.0):
                ends = np.unique(np.clip(cuts, 0.0, alpha))
                mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
                beta = (mid[:, None] + half[:, None] * xg).ravel()
                rows = tuple(np.full(beta.size, x[0]) for x in sched)
                V_A = eng.radius_jet(rows, beta, 1)[1].reshape(-1, xg.size)
                integral = 2.0 * np.sum(half * (V_A @ wg))
                tau, _ = eng.sweep_fraction(A, sched, np.array([alpha]))
                assert abs(tau[0] - integral) <= 1e-11


def test_cheb_batch_axis():
    # the sweep fraction is elementwise: a 2-D batch gives the flat rows'
    # bits in its own shape, at either order
    eng = _engine(make_params(3, 0.7))
    A, alpha = _tau_points(eng, 99, np.random.default_rng(3))
    sched = eng.schedule(A, 2)
    for order in (0, 1):
        flat = eng.sweep_fraction(A, sched, alpha, order)
        grid = eng.sweep_fraction(A.reshape(3, 33), tuple(x.reshape(3, 33) for x in sched),
                                  alpha.reshape(3, 33), order)
        assert len(grid) == 2 + order
        for x, y in zip(grid, flat):
            assert x.shape == (3, 33) and np.array_equal(x.ravel(), y)


def test_cheb_transform_rows_do_not_depend_on_the_block():
    # 339 rows of the sweep fraction, alone or in any block, have the bits
    # of the whole batch, and its inputs are read, not written over
    eng = _engine(make_params(6, 0.534))
    A, alpha = _tau_points(eng, 339, np.random.default_rng(5))
    sched = eng.schedule(A, 2)
    inputs = [x.copy() for x in (A, alpha, *sched)]
    full = eng.sweep_fraction(A, sched, alpha, 1)
    assert all(np.array_equal(x, y) for x, y in zip((A, alpha, *sched), inputs))
    for i in (0, 83, 84, 200, 338):
        for sl in (slice(i, i + 1), slice(max(i - 40, 0), i + 1), slice(i, i + 117)):
            part = eng.sweep_fraction(A[sl], tuple(x[sl] for x in sched), alpha[sl], 1)
            assert all(np.array_equal(x, y[sl]) for x, y in zip(part, full))


def test_clenshaw_few_points_match_the_batch():
    # up to `_FLOAT_POINTS` rows sum the series of `_sweep_tail` in Python
    # floats: bitwise what the batch gives, at either order and in any shape
    eng = _engine(make_params(2, 0.8))
    A, alpha = _tau_points(eng, 40, np.random.default_rng(7))
    sched = eng.schedule(A, 2)
    full = eng.sweep_fraction(A, sched, alpha, 1)

    def part(sl, order=1, shape=None):
        args = (A[sl], alpha[sl], *(x[sl] for x in sched))
        if shape:
            args = tuple(x.reshape(shape) for x in args)
        return eng.sweep_fraction(args[0], args[2:], args[1], order)

    assert curves._FLOAT_POINTS == 8
    for k in range(1, 9):
        for sl in (slice(-k, None), slice(k, k + 1), slice(k, 2 * k)):
            assert all(np.array_equal(x, y[sl]) for x, y in zip(part(sl), full))
        tau, rest = part(slice(-k, None), 0)
        assert np.array_equal(tau, full[0][-k:]) and np.array_equal(rest, full[1][-k:])
    grid = part(slice(0, 6), 1, (2, 3))
    assert all(np.array_equal(x, y[:6].reshape(2, 3)) for x, y in zip(grid, full))


def _sweep_tail_56(ez, p, G, lam, E, X, Y, c, *second):
    """`curves._sweep_tail` as it was with a fixed 56 terms for every row."""
    z = ez / (1.0 + ez)
    tp, p1 = 2.0 * p, p + 1.0
    s, T, D, Tp = 1.0 + 0.0 * z, 0.0 * z, 0.0 * z, 0.0 * z
    if second:
        D1, Tk, Tpz, Tpp = 0.0 * z, 0.0 * z, 0.0 * z, 0.0 * z
    for j in range(56):
        u, v = tp + j, p1 + j
        s *= u
        s /= v
        s *= z
        T += s
        uv = u * v
        D += (j + 2.0) / uv
        Tp += s * D
        if second:
            D1 -= (j + 2.0) * (2.0 * v + u) / (uv * uv)
            ks = (j + 1.0) * s
            Tk += ks
            Tpz += ks * D
            Tpp += s * (D * D + D1)
    W = X * (2.0 + T) + (Y + 2.0 * c * lam) * T + c * (2.0 * E * (1.0 + T) - Tp)
    if not second:
        return (G * W,)
    X2, Y2, c2, m = second
    dlam = m * (c * lam + 0.5 * (Y - X))
    dE = -2.0 * z * dlam
    dz = -2.0 * (1.0 - z) * dlam
    dT = dz * Tk - c * Tp
    dTp = dz * Tpz - c * Tpp
    N = 2.0 * ((1.0 - z) * X + z * Y + c * (E + 2.0 * z * lam))
    dW = (X2 * (2.0 + T) + (Y2 + 2.0 * (c2 * lam + c * dlam)) * T
          + 2.0 * (c2 * E + c * dE) * (1.0 + T) - c2 * Tp
          + (X + Y + 2.0 * c * (lam + E)) * dT - c * dTp)
    return G * W, G * (W * N + dW)


def _tail_args(rng):
    """`_sweep_tail` arguments at z = 0, 1e-300, just either side of every
    term-count boundary ``-ln z = 64 ln 2 / k`` and z = 1/2 exactly, each
    at p = 1/2, p = 1/512 and a random p between."""
    lz = 64.0 * math.log(2.0) / np.arange(2.0, 57.0)
    z = np.concatenate([[0.0, 1e-300], np.exp(-lz * (1.0 + 1e-12)),
                        np.exp(-lz * (1.0 - 1e-12)), [0.5]]).repeat(3)
    p = np.tile([0.5, 1.0 / 512.0, 0.0], z.size // 3)
    p[2::3] = 1.0 / rng.uniform(2.0, 512.0, z.size // 3)
    # z = ez/(1 + ez), ez = exp(-2 lam) and E = log1p(ez); lam is large
    # and finite where ez underflows
    ez = z / (1.0 - z)
    lam = -0.5 * np.log(ez, out=np.full(z.size, -800.0), where=ez > 0.0)
    E = np.log1p(ez)
    G, X, Y, c, X2, Y2, c2 = rng.uniform(0.1, 2.0, (7, z.size))
    return [ez, p, G, lam, E, X, Y, c], [X2, Y2, c2, 1.0 / p]


@pytest.mark.parametrize("order", [0, 1])
def test_sweep_tail_matches_the_fixed_series(order):
    # each row sums only the terms its z needs, yet every output has the
    # bits of all 56 terms: as one array, shuffled, in blocks on both sides
    # of `_TAIL_ROWS`, and row by row in Python floats
    rng = np.random.default_rng(11 + order)
    args, second = _tail_args(rng)
    if order:
        args += second
    z = args[0] / (1.0 + args[0])
    assert z.min() == 0.0 and z.max() == 0.5 and np.min(z[z > 0.0]) < 1e-299
    ref = _sweep_tail_56(*args)
    assert np.all(np.isfinite(ref))
    assert all(np.array_equal(x, y) for x, y in zip(curves._sweep_tail(*args), ref))
    perm = rng.permutation(z.size)
    out = curves._sweep_tail(*(x[perm] for x in args))
    assert all(np.array_equal(x, y[perm]) for x, y in zip(out, ref))
    assert curves._TAIL_ROWS == 24
    for size in (9, 24, 25, 40):
        parts = [curves._sweep_tail(*(x[i:i + size] for x in args))
                 for i in range(0, z.size, size)]
        for k, y in enumerate(ref):
            assert np.array_equal(np.concatenate([part[k] for part in parts]), y)
    for i in range(z.size):
        row = curves._sweep_tail(*(float(x[i]) for x in args))
        assert all(x == y[i] for x, y in zip(row, ref))


@pytest.mark.parametrize("n, r, bound", [(2, 0.8, 12.0), (6, 0.534, 5.0)])
def test_series_terms_per_row(n, r, bound, monkeypatch):
    # the Jacobian of uniform disc points (its angle solve and tau_A) sums
    # 9.7 terms a row at n=2 and 2.6 at n=6 on average, where every row
    # summed 56.  With `_TAIL_ROWS` above the batch, every row is summed by
    # `_series_row` from its first term, so its calls count the terms; the
    # outputs keep their bits
    params = make_params(n, r)
    rng = np.random.default_rng(4)
    rad = r * np.sqrt(rng.random(2000)) * (1.0 - 1e-9)
    theta = rng.uniform(0.0, 2.0 * np.pi, 2000)
    q, p = rad * np.cos(theta), rad * np.sin(theta)
    ref = discmap.sigma_jacobian(q, p, params)
    terms = []
    series_row = curves._series_row

    def counting(z, p, K, start, state):
        terms.append(K - start)
        return series_row(z, p, K, start, state)

    monkeypatch.setattr(curves, "_series_row", counting)
    monkeypatch.setattr(curves, "_TAIL_ROWS", 10**9)
    out = discmap.sigma_jacobian(q, p, params)
    assert all(np.array_equal(x, y) for x, y in zip(out, ref))
    assert len(terms) > 2000 and np.mean(terms) <= bound
    # a row at z = 1/2 sums all 56
    terms.clear()
    curves._sweep_tail(1.0, 0.5, 1.0, 0.0, math.log(2.0), 1.0, 1.0, 1.0)
    curves._sweep_tail(np.ones(30), 0.5, 1.0, 0.0, math.log(2.0), 1.0, 1.0, 1.0)
    assert terms == [56] * 31


@pytest.mark.parametrize("order, bound_mib", [(0, 4.5), (1, 6.5)])
def test_sweep_build_temporaries(order, bound_mib):
    # the sweep fraction's temporaries beyond its outputs: 16384 rows took
    # 2.9 (order 0) and 5.2 MiB (order 1), about 23 and 41 row-length arrays
    eng = _engine(make_params(2, 0.8))
    N = 16384
    A = np.geomspace(1e-6, 0.999, N) * eng.area_max
    sched = eng.schedule(A, order + 1)
    alpha = np.linspace(1e-3, np.pi / 2.0, N)
    tracemalloc.start()
    try:
        out = eng.sweep_fraction(A, sched, alpha, order)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 2 + order
    assert (peak - current) / 2**20 <= bound_mib


# ---------------------------------------------------------------------------
# sweep-angle solve


def _solve_grid(n, r):
    """Areas across the whole range, sweep fractions in (0, 1) including
    both ends' neighbours."""
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
    top = np.nextafter(1.0, 0.0)
    tau = np.concatenate([[1e-300, 1e-12, 0.5, 1.0 - 1e-12, top], rng.random(20)])
    A, tau = (x.ravel() for x in np.meshgrid(A, tau, indexing="ij"))
    return eng, A, tau


_SOLVE_CASES = [(2, 0.8), (3, 0.7), (4, 0.63), (6, 0.534)]


@pytest.mark.parametrize("n, r", _SOLVE_CASES)
def test_solve_angle_residual_at_roundoff(n, r):
    eng, A, tau4 = _solve_grid(n, r)
    sched = eng.schedule(A, 1)
    alpha = discmap._solve_angle(eng, A, sched, tau4)
    tau, rest = eng.sweep_fraction(A, sched, alpha)
    # near the top the residual is read in 1 - tau, where 1 - tau4 is exact
    res = np.where(tau4 <= 0.5, tau - tau4, (1.0 - tau4) - rest)
    assert np.max(np.abs(res)) <= 1e-15
    # relative to the smaller of tau4 and 1 - tau4, up to what the float
    # angle can resolve: tau moves by 2 V_A per unit of alpha
    V_A = eng.radius_jet(sched, alpha, 1)[1]
    edge = np.minimum(tau4, 1.0 - tau4)
    assert np.all(np.abs(res) <= 1e-13 * edge + 8.0 * V_A * np.spacing(alpha))


@pytest.mark.parametrize("n, r", _SOLVE_CASES)
def test_solve_angle_passes(n, r, monkeypatch):
    # the start and a few Newton steps: each pass evaluates only the rows
    # still moving, and most rows stop after one or two
    eng, A, tau4 = _solve_grid(n, r)
    sched = eng.schedule(A, 1)
    rows = []
    fraction = eng.sweep_fraction

    def counting(A, sched, alpha, order=0):
        rows.append(alpha.size)
        return fraction(A, sched, alpha, order)

    monkeypatch.setattr(eng, "sweep_fraction", counting)
    discmap._solve_angle(eng, A, sched, tau4)
    assert rows[0] == A.size and rows == sorted(rows, reverse=True)
    assert len(rows) <= 7 and sum(rows) <= 3 * A.size


# The next three tests keep the names of the series solve's tests: its
# start, its series passes, and its per-row bracket.


@pytest.mark.parametrize("n, r", _SOLVE_CASES)
def test_solve_angle_hermite_start(n, r, monkeypatch):
    # the start alone, so a poor start cannot hide behind the Newton steps.
    # Near the diameter it is the asymptote tau = 2 V_A(A, 0) tan(alpha),
    # to roundoff at tau4 <= 1e-12 (8e-14 in log-odds measured); in the
    # middle it lies within 5 of the root in log-odds (4.6 measured, on
    # round curves at tau4 = 0.996)
    eng, A, tau4 = _solve_grid(n, r)
    sched = eng.schedule(A, 1)
    monkeypatch.setattr(discmap, "_ANGLE_STEPS", 0)
    alpha = discmap._solve_angle(eng, A, sched, tau4)
    assert np.all((alpha > 0.0) & (alpha <= np.pi / 2.0))
    tau, rest = eng.sweep_fraction(A, sched, alpha)
    for sel, bound in ((tau4 <= 1e-12, 1e-12), ((tau4 > 1e-3) & (tau4 < 1.0 - 1e-3), 5.0)):
        g = np.log(tau[sel] / tau4[sel]) - np.log(rest[sel] / (1.0 - tau4[sel]))
        assert sel.sum() > 100 and np.max(np.abs(g)) <= bound


def test_solve_angle_series_passes(p28, monkeypatch):
    # each pass of the solve sums the series of `_sweep_tail` once over the
    # rows still moving: as one array while more than `_FLOAT_POINTS`
    # remain, then row by row in floats
    eng = _engine(p28)
    rng = np.random.default_rng(3)
    A = rng.uniform(1e-6, 0.999, 64) * eng.area_max
    tau4 = rng.random(64)
    sched = eng.schedule(A, 1)
    rows, sums = [], []
    fraction, tail = eng.sweep_fraction, curves._sweep_tail

    def counting_rows(A, sched, alpha, order=0):
        rows.append(alpha.size)
        return fraction(A, sched, alpha, order)

    def counting_sums(ez, *args):
        sums.append(np.size(ez))
        return tail(ez, *args)

    monkeypatch.setattr(eng, "sweep_fraction", counting_rows)
    monkeypatch.setattr(curves, "_sweep_tail", counting_sums)
    discmap._solve_angle(eng, A, sched, tau4)
    assert rows[0] == 64 and len(rows) <= 5 and sum(rows) <= 2 * 64
    assert sums == [s for k in rows for s in ([k] if k > curves._FLOAT_POINTS else [1] * k)]


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_sweep_build_brackets_from_its_row_blocks(n, r):
    # each row keeps its own bracket and stopping rule, so the angle it
    # solves to does not depend on the block of rows it is solved in
    eng, A, tau4 = _solve_grid(n, r)
    sched = eng.schedule(A, 1)
    alpha = discmap._solve_angle(eng, A, sched, tau4)

    def solve(sl):
        return discmap._solve_angle(eng, A[sl], tuple(x[sl] for x in sched), tau4[sl])

    for size in (7, 9, 500):
        parts = [solve(slice(i, i + size)) for i in range(0, A.size, size)]
        assert np.array_equal(np.concatenate(parts), alpha)
    for i in range(0, A.size, 37):
        assert np.array_equal(solve(slice(i, i + 1)), alpha[i : i + 1])


@pytest.mark.parametrize("n, r", _SOLVE_CASES)
def test_solved_angle_has_its_closed_form_fraction(n, r):
    # the map's own angle, read back off its image point, has the sweep
    # fraction it was placed at
    eng, A, tau4 = _solve_grid(n, r)
    params = make_params(n, r)
    Q, P = discmap.level_curve_point(A, tau4 / 4.0, params)
    alpha = np.arctan2(P - params.c, Q - np.pi / 2.0)
    off = alpha > 0.0
    sched = tuple(x[off] for x in eng.schedule(A, 1))
    tau, _ = eng.sweep_fraction(A[off], sched, alpha[off])
    assert off.sum() > 0.9 * A.size
    assert np.max(np.abs(tau - tau4[off])) <= 1e-12
