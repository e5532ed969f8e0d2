"""Nested family of level curves filling an open rectangle.

Each positive area ``A < pi*r**2`` is assigned a closed convex curve in the
``(Q, P)`` rectangle ``(0, pi) x (0, 2c)``, centered at ``(pi/2, c)`` and
symmetric under reflection in both center lines.  The curve with parameter
``A`` encloses area exactly ``A``, the family is strictly nested, and the
curve's height obeys ``|P - c| <= A/(2*pi) + epsilon/2``, half a collar
inside the band the packing estimates require.

The curves are generalized ellipses: in centered coordinates
``(x, y) = (Q - pi/2, P - c)`` the curve is ``|x/a|**m + |y/h|**m = 1``,
where the half-width ``a``, half-height ``h`` and exponent ``m`` follow a
smooth schedule in ``A``.  Small curves are round (``m = 2``); as ``A`` grows
the exponent rises so that the width can approach ``pi/2`` while the height
stays pinned near ``A/(2*pi)``, keeping the enclosed area equal to ``A``
without leaving the band.

Everything downstream (the area-preserving disc map, its Jacobian, and the
area oracle) consumes this module through a per-parameter engine holding the
fitted schedule and Chebyshev quadrature nodes.  The engine writes each
quantity once, as a jet whose ``order`` argument selects how many
``A``-derivatives to append: ``schedule`` for ``(h, a, m)``, ``radius_jet``
for the squared polar radius, and ``build_sweep`` for the area-sweep series,
so the map, its inverse and its Jacobian evaluate the same formulas.  The
inverse reads the sweep fraction in closed form instead, from
``sweep_fraction``.  All but ``schedule`` take a row's schedule jet, so a
map call computes it once for every step.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ScheduleInfeasible
from .params import PackingParams

__all__ = ["area_factor", "shape_schedule"]

# Sharpness of the smooth minimum blending the round-regime height ``rho``
# with the band cap; also the largest exponent the schedule may request.
_BLEND_K = 6.0
_M_MAX = 512.0
# Sweep-angle Newton steps: on the node bracket's Hermite cubic (to 2e-8),
# then on the series (one leaves up to 3e-15, two reach roundoff).  A series
# residual within `_SERIES_ROUNDOFF` of the sweep total is the series' own
# rounding noise (about 1e-16 near the ends) and is not stepped on.
_HERMITE_STEPS = 3
_NEWTON_STEPS = 2
_SERIES_ROUNDOFF = 2.0**-50
# Grid values per row block of the sweep build and the node bracket: small
# enough that a block's temporaries stay in cache.
_SWEEP_ELEMS = 2**16
# Node values per slice of the DCT-I in `cheb_coeffs` and `antideriv_nodes`:
# the even extension and its spectrum, allocated once per sweep build or
# angle solve, take 0.5 MiB beside a row block's grid.
_DCT_ELEMS = 2**14
# Floor of the log-ratio ``u`` in `radius_jet`'s derivative terms: below it
# ``exp(m*u/2)`` is 0 for every exponent ``m >= 2``, so the floor changes no
# value; it only keeps ``u = -inf`` (on the axis ``alpha = 0``) out of the
# products ``0 * u``.
_U_FLOOR = -1e3
# Up to this many points `clenshaw` sums in Python floats: on a few points a
# numpy call per term costs about a microsecond, a float step 0.07 per point.
_FLOAT_POINTS = 8
# `_log_area_factor`: Gamma factors peeled off, then terms of the series in
# 1/m; `_BERNOULLI` holds B_2 .. B_16 for `_hurwitz_zeta`.
_GAMMA_PEEL = 8
_GAMMA_TERMS = 21
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
# `_fit_exponent`: step cap, and the relative step in m**-2 that ends it.
_FIT_STEPS = 60
_FIT_TOL = 2.0**-50
# Terms of `sweep_fraction`'s hypergeometric series past the first: each is
# at most z <= 1/2 times the one before, so the rest is below 2**-56.
_BETA_TERMS = 56


def area_factor(m):
    """Area of ``|x|**m + |y|**m <= 1`` divided by 4.

    Equals ``Gamma(1+1/m)**2 / Gamma(1+2/m)``, so a curve with half-axes
    ``(a, h)`` and exponent ``m`` encloses area ``4*a*h*area_factor(m)``.
    Increases from ``1/2`` at ``m = 1`` and ``pi/4`` at ``m = 2`` toward 1
    as ``m -> inf``; NaN for ``m < 1``.
    """
    return np.exp(_log_area_factor(m)[0])


def _hurwitz_zeta(s, a):
    """``sum_{n >= 0} (n + a)**-s`` for an integer ``s >= 2``, in floats.

    Sixteen terms summed smallest first, then Euler-Maclaurin's tail.
    """
    b = a + 16
    tail = b ** (1 - s) / (s - 1) + 0.5 * b**-s
    term = 0.5 * s * b ** (-s - 1)  # B_2i/(2i)! * s(s+1)..(s+2i-2) * b**(1-s-2i)
    for i, bern in enumerate(_BERNOULLI, 1):
        tail += bern * term
        term *= (s + 2 * i - 1) * (s + 2 * i) / ((2 * i + 1) * (2 * i + 2) * b * b)
    return sum((a + n) ** -s for n in reversed(range(16))) + tail


# `_log_area_factor`'s series past the peeled factors: with ``z(k) =
# _hurwitz_zeta(k, _GAMMA_PEEL + 1)``, the rest of ``D(x)`` is ``sum_k
# (-1)**k z(k) (2 - 2**k) / k * x**k`` over ``k >= 2``.  Listed are the
# coefficients of ``x**(k-2)`` in ``D/x**2``, ``D'/x`` and ``D''``.
_K = np.arange(2, _GAMMA_TERMS + 2)
_D = (
    (-1.0) ** _K
    * np.array([_hurwitz_zeta(int(k), _GAMMA_PEEL + 1) for k in _K])
    * (2.0 - 2.0**_K)
    / _K
)
_D_SERIES = [(c * _D).tolist() for c in (1, _K, _K * (_K - 1))]
del _K, _D


def _log_area_factor(m, order=0):
    """``log area_factor(m)``, then its first and second m-derivatives.

    With ``x = 1/m`` the log is ``D(x) = 2 lnGamma(1+x) - lnGamma(1+2x)``.
    Gamma's Weierstrass product, ``1/Gamma(1+z) = exp(gamma*z) prod_j
    (1 + z/j) exp(-z/j)``, splits ``D`` into its first `_GAMMA_PEEL`
    factors, which give ``-log(prod_j (1 + x**2/(j*(j + 2x))))``, and the
    power series of the rest (Euler's constant and the ``exp(-z/j)``
    cancel).  That product, its x-derivatives ``-sum_j 2x/((j+x)(j+2x))``
    and ``-sum_j (2j**2 - 4x**2)/((j+x)(j+2x))**2``, and the series carry
    no cancellation, so all three are relative to a few ulps, also as ``m
    -> inf``, where a difference of digammas would cancel.  The series
    reaches roundoff for ``m >= 1`` (its derivatives for ``m >= 2``); below
    ``m = 1`` the result is NaN.

    Up to `_FLOAT_POINTS` values are evaluated one at a time in Python
    floats, by the same steps in the same order as an array, so a value
    does not depend on its batch (as in `clenshaw`).
    """
    m = np.asarray(m, dtype=float)
    if m.size > _FLOAT_POINTS:
        x = np.divide(1.0, m, out=np.full(m.shape, np.nan), where=m >= 1.0)
        return _log_area_factor_jet(x, order)
    jets = [
        _log_area_factor_jet(1.0 / v if v >= 1.0 else np.nan, order)
        for v in m.ravel().tolist()
    ]
    return tuple(np.array(col).reshape(m.shape) for col in zip(*jets))


def _log_area_factor_jet(x, order):
    """`_log_area_factor` at ``x = 1/m``, a float or an array.

    The augmented assignments update arrays in place and rebind floats, so
    both take the same steps.
    """
    x2, tx = x * x, 2.0 * x
    # e = prod_j (1 + t_j) - 1 with t_j = x**2/(j*(j + 2x)) > 0, summed as
    # e += t_j*(1 + e); p1 and p2 gather the peeled terms of D' and D''
    e, p1, p2 = 0.0 * x, 0.0 * x, 0.0 * x
    for j in range(1, _GAMMA_PEEL + 1):
        v = tx + j
        t = x2 / (j * v)
        t *= e + 1.0
        e += t
        if order >= 1:
            uv = x + j
            uv *= v
            p1 += tx / uv
        if order == 2:
            uv *= uv
            p2 += (2.0 * j * j - 4.0 * x2) / uv
    series = [_horner(c, x) for c in _D_SERIES[: order + 1]]
    jet = (x2 * series[0] - np.log1p(e),)
    if order >= 1:
        # d/dm = -x**2 d/dx and d2/dm2 = x**4 d2/dx2 + 2 x**3 d/dx
        d1 = x * series[1] - p1
        jet += (-x2 * d1,)
    if order == 2:
        d2 = series[2] - p2
        jet += (x2 * x * (x * d2 + 2.0 * d1),)
    return jet


def _horner(c, x):
    """``sum_k c[k] * x**k`` for a list ``c``, in place as above."""
    y = 0.0 * x + c[-1]
    for ck in reversed(c[:-1]):
        y *= x
        y += ck
    return y


def _fit_exponent(g):
    """The exponent ``m`` in ``(2, _M_MAX)`` at which ``area_factor(m) = g``.

    Newton steps on ``log area_factor(m) - log(g)`` in ``u = m**-2``, in
    which it is nearly linear (``-pi**2/6 * u`` to leading order), from the
    bracket's end ``m = 2``; a step that leaves the bracket bisects it.
    """
    target = float(np.log(g))
    lo, hi = _M_MAX**-2, 0.25
    u = hi
    for _ in range(_FIT_STEPS):
        m = u**-0.5
        f, dm = _log_area_factor(m, 1)
        f = float(f) - target
        if f < 0.0:
            hi = u
        else:
            lo = u
        step = f / (-0.5 * m**3 * float(dm))  # d/du = -(m**3/2) d/dm
        if f == 0.0 or abs(step) <= _FIT_TOL * u:
            break
        u = u - step if lo < u - step < hi else 0.5 * (lo + hi)
    return m


def _smoothstep(x, order=0):
    """C^3 monotone step on [0, 1] (septic polynomial, flat at both ends).

    Returns the value, then the first and second derivatives up to ``order``.
    """
    out = (x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3),)
    if order >= 1:
        out += (140.0 * x**3 * (1.0 - x) ** 3,)
    if order == 2:
        out += (420.0 * x**2 * (1.0 - x) ** 2 * (1.0 - 2.0 * x),)
    return out


def _height(A, eps, order=0):
    """Smooth minimum ``h`` of the round radius ``sqrt(A/pi)`` and the band cap.

    Returns ``(h,)``, then ``d(log h)/dA`` and ``d2(log h)/dA2`` up to ``order``.
    """
    k = _BLEND_K
    cap = A / (2.0 * np.pi) + eps / 2.0
    lr, lc = np.log(np.sqrt(A / np.pi)), np.log(cap)
    h = np.exp(-np.logaddexp(-k * lr, -k * lc) / k)
    if order == 0:
        return (h,)
    w = 1.0 / (1.0 + np.exp(k * (lr - lc)))
    lrp = 0.5 / A
    lcp = (0.5 / np.pi) / cap
    lnhp = w * lrp + (1.0 - w) * lcp
    if order == 1:
        return h, lnhp
    wp = -k * w * (1.0 - w) * (lrp - lcp)
    lnhpp = w * (-0.5 / A**2) + (1.0 - w) * (-lcp * lcp) + wp * (lrp - lcp)
    return h, lnhp, lnhpp


def _fft_length(n):
    """The smallest integer at or above ``n`` with no prime factor above 7.

    The sweep's DCT-I is a real FFT of ``2 * ncheb`` points, and pocketfft
    falls back to a slow generic pass for a larger prime factor (a row of
    984 = 2**3 * 3 * 41 points takes 1.75 times as long as one of 1000).
    """
    while True:
        k = n
        for p in (2, 3, 5, 7):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _check_areas(A, area_max):
    """Raise ValueError unless every ``A`` lies in ``(0, area_max)``; NaN fails."""
    if not np.all((A > 0.0) & (A < area_max)):
        raise ValueError(f"area must lie in (0, {area_max!r})")


# ---------------------------------------------------------------------------
# Chebyshev helpers (Lobatto grid, first-kind series)
# ---------------------------------------------------------------------------


def dct_work(M, rows):
    """Work buffers for `cheb_coeffs` and `antideriv_nodes` on ``M+1`` nodes:
    the even extension and its spectrum, for ``rows`` rows at most and at
    most `_DCT_ELEMS` node values."""
    rows = max(1, min(rows, _DCT_ELEMS // (M + 1)))
    return np.empty((rows, 2 * M)), np.empty((rows, M + 1), dtype=complex)


def _dct1(x, div, work=None, ends=1.0, out=None):
    """Unnormalised DCT-I along the last axis, ``scipy.fft.dct(x, type=1)``,
    divided by ``div``.

    Each slice of rows is the real FFT of its even extension ``x_0 ..
    x_M, x_{M-1} .. x_1``, built in the `dct_work` buffers ``work`` after
    ``x_0`` and ``x_M`` are scaled by ``ends``; pocketfft takes the same
    path inside scipy's transform, so the bits are the same.  A slice is
    read before its result is written, so ``out`` may be ``x``.
    """
    M = x.shape[-1] - 1
    rows = x.reshape(-1, M + 1)
    out = np.empty(rows.shape) if out is None else out.reshape(rows.shape)
    ext, spec = work or dct_work(M, len(rows))
    for i in range(0, len(rows), len(ext)):
        part = rows[i : i + len(ext)]
        e, f = ext[: len(part)], spec[: len(part)]
        e[:, : M + 1] = part
        e[:, M + 1 :] = part[:, M - 1 : 0 : -1]
        if ends != 1.0:
            e[:, 0] *= ends
            e[:, M] *= ends
        np.fft.rfft(e, out=f)
        np.divide(f.real, div, out=out[i : i + len(part)])
    return out.reshape(x.shape)


def cheb_coeffs(F, work=None, out=None):
    """Chebyshev coefficients from values at Lobatto nodes.

    Parameters
    ----------
    F : ndarray, shape (..., M+1)
        Values at ``x_j = cos(pi*j/M)``, ordered from ``x=1`` down to
        ``x=-1``.
    work : tuple of ndarray, optional
        `dct_work` buffers to compute the transform in.
    out : ndarray, optional
        Where to write ``c``: a 2-d array of ``F``'s shape, possibly ``F``.

    Returns
    -------
    c : ndarray, shape (..., M+1)
        Coefficients with ``f(x) = sum_k c[k] * T_k(x)``.
    """
    c = _dct1(F, F.shape[-1] - 1, work, out=out)
    c[..., 0] *= 0.5
    c[..., -1] *= 0.5
    return c


def cheb_antideriv(c):
    """Coefficients of ``x -> integral of f from -1 to x``, same basis."""
    M = c.shape[-1] - 1
    b = np.empty(c.shape[:-1] + (M + 2,))
    # b_k = (c_{k-1} - c_{k+1}) / (2k) for k >= 1; c_0 enters doubled because
    # the series convention above stores it halved.
    np.subtract(c[..., 1 : M - 1], c[..., 3:], out=b[..., 2:M])
    b[..., 1] = (c[..., 0] + c[..., 0]) - c[..., 2]
    b[..., M:] = c[..., M - 1 :]
    b[..., 1:] /= 2.0 * np.arange(1, M + 2)
    # the constant that makes the series vanish at x = -1, where T_k = (-1)**k
    b[..., 0] = np.sum(b[..., 1::2], axis=-1) - np.sum(b[..., 2::2], axis=-1)
    return b


@functools.lru_cache(maxsize=16)
def _last_term_nodes(M):
    """``T_{M+1}(x_j) = (-1)**j * x_j`` at the Lobatto nodes, read-only."""
    j = np.arange(M + 1)
    t = (-1.0) ** j * np.cos(np.pi * j / M)
    t.flags.writeable = False
    return t


def antideriv_nodes(b, work=None):
    """Values of a `cheb_antideriv` series at its integrand's Lobatto nodes.

    ``b`` has ``M+2`` coefficients and the nodes are ``x_j = cos(pi*j/M)``,
    ``j = 0..M``.  The first ``M+1`` terms take one DCT-I (the inverse of
    `cheb_coeffs`, in the `dct_work` buffers ``work`` if given, as there);
    the last adds in closed form, ``T_{M+1}(x_j) = (-1)**j * x_j``.
    """
    M = b.shape[-1] - 2
    F = _dct1(b[..., : M + 1], 2.0, work, ends=2.0)
    F += b[..., M + 1 :] * _last_term_nodes(M)
    return F


def _node_bracket(b, total, tau4, work=None):
    """Bracket each row's target ``tau4 * total`` between adjacent nodes.

    ``b`` holds `cheb_antideriv` series of the sweep and ``total`` their
    values at ``s = 1``.  The sweep's values on the Lobatto nodes
    (`antideriv_nodes`) increase with ``s`` (``V_A > 0`` and the warp is
    increasing), so counting the nodes below a target brackets its root.
    Returns ``(j, f_lo, f_hi)``: the first node index below the target
    (nodes run from ``s = 1`` down) and the sweep's values at nodes ``j``
    and ``j - 1``.
    """
    M = b.shape[-1] - 2
    F = antideriv_nodes(b, work)  # descending in j, like the nodes
    # the end values are exact, and a target within the series' rounding of
    # an end is then bracketed by the end's node
    F[:, 0], F[:, -1] = total, 0.0
    below = np.sum(F < (tau4 * total)[:, None], axis=-1)
    j = M + 1 - np.clip(below, 1, M)
    f_lo = np.take_along_axis(F, j[:, None], axis=-1)[:, 0]
    f_hi = np.take_along_axis(F, j[:, None] - 1, axis=-1)[:, 0]
    return j, f_lo, f_hi


def clenshaw(c, x):
    """Evaluate ``sum_k c[...,k] * T_k(x)`` with Clenshaw recurrence.

    Up to `_FLOAT_POINTS` points are summed one at a time in Python floats,
    whose operations round as numpy's do: the same steps in the same order
    give the same bits, so a point's value does not depend on its batch.
    """
    x = np.asarray(x)
    shape = np.broadcast_shapes(c.shape[:-1], x.shape)
    if c.dtype == x.dtype == np.float64 and np.prod(shape) <= _FLOAT_POINTS:
        rows = np.broadcast_to(c, shape + c.shape[-1:]).reshape(-1, c.shape[-1])
        xs = np.broadcast_to(x, shape).ravel().tolist()
        vals = [_clenshaw_float(ck, xk) for ck, xk in zip(rows.tolist(), xs)]
        return np.array(vals).reshape(shape)
    x2 = 2.0 * x
    # three buffers in turn: the new term and the two before it
    b0, b1, b2 = np.empty(shape), np.zeros(shape), np.zeros(shape)
    for k in range(c.shape[-1] - 1, 0, -1):
        np.multiply(x2, b1, out=b0)
        b0 += c[..., k]
        b0 -= b2
        b0, b1, b2 = b2, b0, b1
    return c[..., 0] + x * b1 - b2


def _clenshaw_float(c, x):
    """`clenshaw` of one coefficient list at one float ``x``."""
    x2 = 2.0 * x
    b1 = b2 = 0.0
    for ck in reversed(c[1:]):
        b1, b2 = ck + x2 * b1 - b2, b1
    return c[0] + x * b1 - b2


def _sweep_tail(ez, p, G, lam, E, X, Y, c):
    """``G * W``, the last steps of `sweep_fraction`, on floats or arrays.

    With ``z = ez/(1 + ez)``, sums ``T = sum_{k>=1} (2p)_k/(p+1)_k z**k``
    over `_BETA_TERMS` terms and its p-derivative ``T_p``, in which a
    term's log-derivative is the running sum of ``2/(2p+j) - 1/(p+1+j) =
    (j+2)/((2p+j)(p+1+j))``.  The augmented assignments update arrays in
    place and rebind floats, so both take the same steps (as in
    `_log_area_factor_jet`).
    """
    z = ez / (1.0 + ez)
    tp, p1 = 2.0 * p, p + 1.0
    s, T, D, Tp = 1.0 + 0.0 * z, 0.0 * z, 0.0 * z, 0.0 * z
    for j in range(_BETA_TERMS):
        u, v = tp + j, p1 + j
        s *= u
        s /= v
        s *= z
        T += s
        D += (j + 2.0) / (u * v)
        Tp += s * D
    W = X * (2.0 + T) + (Y + 2.0 * c * lam) * T + c * (2.0 * E * (1.0 + T) - Tp)
    return G * W


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class _CurveEngine:
    """Fitted schedule plus quadrature data for one parameter set.

    Holds everything that depends only on ``(n, r, epsilon)``: the endpoint
    exponent fit, the Chebyshev node count, and the node abscissae.  All
    methods are vectorized over arrays of areas.  A higher ``order`` only
    appends derivative terms, so leading outputs agree bitwise across orders.
    """

    def __init__(self, params: PackingParams):
        self.c = params.c
        self.eps = params.epsilon
        self.area_max = params.area_max
        # corner margin: the widest curve stops short of the rectangle's
        # vertical walls by at least this much
        self.delta_q = min(0.05, np.pi * self.eps / 2.0)

        (h_end,) = _height(np.asarray(self.area_max), self.eps)
        a_target = np.pi / 2.0 - 1.1 * self.delta_q
        g_end = self.area_max / (4.0 * h_end * a_target)
        if g_end <= area_factor(2.0):
            self.m_end = 2.0
        elif g_end >= 1.0:
            # area factors stay below 1 for every exponent
            raise ScheduleInfeasible(
                f"outermost curve needs area factor {g_end:.9f} >= 1, which no "
                f"exponent reaches: the height blend leaves the outermost "
                f"half-height short of the band cap by more than the collar "
                f"slack; epsilon={self.eps!r} is too small"
            )
        elif g_end >= area_factor(_M_MAX):
            raise ScheduleInfeasible(
                f"outermost curve needs area factor {g_end:.9f}, beyond the "
                f"exponent cap {_M_MAX:g}; epsilon={self.eps!r} is too small"
            )
        else:
            self.m_end = _fit_exponent(g_end)
        lam_end = self.area_max / (self.area_max + np.pi * self.eps)
        self.m_scale = 2.0 + (self.m_end - 2.0) / _smoothstep(lam_end)[0]
        self.ncheb = _fft_length(int(max(192, 2.5 * self.m_end + 48)))
        j = np.arange(self.ncheb + 1)
        self.xnodes = np.cos(np.pi * j / self.ncheb)  # 1 .. -1
        self._validate()

    def _validate(self):
        """Check monotonicity and band containment on a dense area grid."""
        A = np.concatenate(
            [
                np.geomspace(1e-8 * self.area_max, self.area_max, 400),
                np.linspace(0.9 * self.area_max, self.area_max, 100),
            ]
        )
        sched = h, a, m, hp, ap, mp = self.schedule(A, 1)
        cap = A / (2.0 * np.pi) + self.eps / 2.0
        problems = []
        if not np.all(ap > 0.0):
            problems.append("half-width not strictly increasing")
        if not np.all(hp > 0.0):
            problems.append("half-height not strictly increasing")
        if not np.all(h < cap):
            problems.append("half-height exceeds band cap")
        if not a.max() < np.pi / 2.0 - self.delta_q:
            problems.append("half-width reaches the wall margin")
        alpha = np.linspace(0.0, np.pi / 2.0, 101)
        _, VA = self.radius_jet(tuple(x[:, None] for x in sched), alpha, 1)
        if not VA.min() > 0.0:
            problems.append("level curves not strictly nested")
        if problems:
            raise ScheduleInfeasible("; ".join(problems))

    # -- schedule -----------------------------------------------------------

    def schedule(self, A, order=0):
        """Half-height, half-width, exponent at each area, with A-derivatives.

        Returns ``(h, a, m)``; ``order >= 1`` appends ``(h_A, a_A, m_A)``
        and ``order == 2`` appends ``(h_AA, a_AA, m_AA)``.
        """
        A = np.asarray(A, dtype=float)
        height = _height(A, self.eps, order)
        h = height[0]
        B = np.pi * self.eps
        lam = A / (A + B)
        step = _smoothstep(lam, order)
        m = 2.0 + (self.m_scale - 2.0) * step[0]
        lg = _log_area_factor(m, order)
        a = A / (4.0 * h * np.exp(lg[0]))
        if order == 0:
            return h, a, m
        lnhp = height[1]
        lamp = B / (A + B) ** 2
        mp = (self.m_scale - 2.0) * step[1] * lamp
        g = lg[1:]
        lnap = 1.0 / A - lnhp - g[0] * mp
        first = (h * lnhp, a * lnap, mp)
        if order == 1:
            return (h, a, m) + first
        lnhpp = height[2]
        lampp = -2.0 * B / (A + B) ** 3
        mpp = (self.m_scale - 2.0) * (step[2] * lamp**2 + step[1] * lampp)
        lnapp = -1.0 / A**2 - lnhpp - (g[1] * mp**2 + g[0] * mpp)
        second = (h * (lnhpp + lnhp**2), a * (lnapp + lnap**2), mpp)
        return (h, a, m) + first + second

    # -- curve geometry -----------------------------------------------------

    def radius_jet(self, sched, alpha, order=0, angle=False):
        """Squared distance ``V`` from the center at quarter angle ``alpha``.

        ``sched`` is the rows' `schedule` jet, to at least ``order``; it may
        carry more derivatives than ``order`` uses, so one schedule serves
        every jet of a row.  ``alpha`` is measured in the first quadrant of
        centered coordinates; the full curve follows by reflecting in both
        axes.  Returns ``V`` at ``order=0``, ``(V, V_A)`` at ``order=1``
        (``V_A > 0`` iff the curves are nested) and ``(V, V_A, V_AA)`` at
        ``order=2``; ``angle=True`` appends ``V_alpha``.  With ``x =
        log(a**2/cos**2)`` and ``y = log(h**2/sin**2)``, ``V = (exp(-m*x/2)
        + exp(-m*y/2))**(-2/m)``.  Both logs come from one tangent, as
        ``log1p(t**2)`` and ``log1p(t**-2)``, each free of cancellation on
        its half of the quadrant, and the ratio ``e = exp(-m*|x - y|/2)`` of
        the smaller term to the larger gives the log-sum and both weights.
        Past the first few operations the grid is computed in place.
        """
        h, a, m = sched[:3]
        mh = -0.5 * m
        x = np.tan(alpha)
        x *= x
        with np.errstate(divide="ignore", over="ignore"):
            y = np.reciprocal(x)  # inf on the axis alpha = 0
        x = np.log1p(x, out=x) + 2.0 * np.log(a)
        y = np.log1p(y, out=y) + 2.0 * np.log(h)
        u = np.subtract(x, y)
        e = np.abs(u)
        e *= mh
        np.exp(e, out=e)
        # log V = min(x, y) - (2/m) log1p(e), in the buffers of x and y
        V = np.minimum(x, y, out=x)
        lg = np.log1p(e, out=y)
        del x, y  # so that `del lg` below frees that buffer
        lg *= 2.0 / m
        V -= lg
        np.exp(V, out=V)
        if order == 0 and not angle:
            return V
        np.maximum(u, _U_FLOOR, out=u)
        # weights of the two terms: the smaller term's is wmin = e/(1+e),
        # the larger's q = 1 - wmin, and the sine term's w2 = q exp(m min(u,
        # 0)/2); H = wmin |u| + (2/m) log1p(e) >= 0 is 2/m times their entropy
        wmin = np.divide(e, e + 1.0, out=e)
        del e
        H = np.abs(u)
        H *= wmin
        H += lg
        del lg
        jet = (V,)
        if angle:
            w1 = np.maximum(u, 0.0)
            w1 *= mh
            np.exp(w1, out=w1)
        if order >= 1:
            hp, ap, mp = sched[3:6]
            g1, g2 = ap / a, hp / h
            rmp = mp / m
        if order == 2:
            # D = w1 w2 (l1' - l2')**2, where l_i = -m x_i / 2 and
            # l1' - l2' = m (g2 - g1) - (m'/2) u
            D = np.multiply(u, -0.5 * mp)
            D += m * (g2 - g1)
            D *= D
            D *= wmin
        q = np.subtract(1.0, wmin, out=wmin)
        w2 = np.minimum(u, 0.0, out=u)
        w2 *= 0.5 * m
        np.exp(w2, out=w2)
        w2 *= q
        if angle:
            # V_alpha = 2V (w1 tan - w2 cot); w2 vanishes on alpha = 0
            w1 *= q
            t = np.tan(alpha)
            w1 *= t
            w1 -= np.divide(w2, t, out=np.zeros_like(w2), where=t > 0.0)
            w1 *= V
            w1 *= 2.0
        if order >= 1:
            if order == 2:
                D *= q
            # N_A = (log V)' = (m'/m) H + sum_i w_i x_i', where x' = 2 a'/a
            # and y' = 2 h'/h; V_A = V N_A
            N_A = np.multiply(H, rmp, out=q)
            N_A += 2.0 * g1
            N_A += w2 * (2.0 * (g2 - g1))
            if order == 2:
                hpp, app, mpp = sched[6:9]
                G1, G2 = app / a - g1 * g1, hpp / h - g2 * g2
                # N_AA = N_A' = (m''/m - 2 (m'/m)**2) H - (2/m) D
                #        + sum_i w_i x_i''; V_AA = V (N_A**2 + N_AA)
                V_AA = np.multiply(H, mpp / m - 2.0 * rmp * rmp, out=H)
                D *= -2.0 / m
                V_AA += D
                V_AA += 2.0 * G1
                V_AA += np.multiply(w2, 2.0 * (G2 - G1), out=D)
                V_AA += np.multiply(N_A, N_A, out=D)
                V_AA *= V
            V_A = np.multiply(N_A, V, out=N_A)
            jet += (V_A, V_AA) if order == 2 else (V_A,)
        if angle:
            jet += (w1,)
        return jet if len(jet) > 1 else V

    # -- warped quadrature contour -------------------------------------------

    def warp_params(self, sched):
        """Parameters of the sinh map packing nodes near the curve corner.

        ``sched`` is the rows' `schedule` jet; only ``(h, a, m)`` are read.
        """
        h, a, m = sched[:3]
        alpha_c = np.arctan2(h, a)
        w = np.clip(3.0 * np.sin(alpha_c) * np.cos(alpha_c) / m, 1e-10, 0.5)
        beta = 0.5 * (
            np.arcsinh((np.pi / 2.0 - alpha_c) / w) + np.arcsinh(alpha_c / w)
        )
        s_c = -1.0 + np.arcsinh(alpha_c / w) / beta
        return alpha_c, w, beta, s_c

    @staticmethod
    def warp(s, wp):
        """Contour angle ``alpha(s)``, clipped to the quadrant, and ``alpha'(s)``.

        Both share ``beta * (s - s_c)``, and ``alpha'`` is formed in its buffer.
        """
        alpha_c, w, beta, s_c = wp
        z = np.subtract(s, s_c)
        z *= beta
        alpha = np.sinh(z)
        alpha *= w
        alpha += alpha_c
        np.clip(alpha, 0.0, np.pi / 2.0, out=alpha)
        np.cosh(z, out=z)
        z *= w * beta
        return alpha, z

    # -- area sweep ----------------------------------------------------------

    def sweep_fraction(self, A, sched, alpha):
        """Quarter sweep fraction ``tau(A, alpha)`` of each row, in closed form.

        ``sched`` is the rows' `schedule` jet at areas ``A``, to at least
        first order, and ``alpha`` in ``(0, pi/2]`` their quarter angles.
        ``tau`` is the share of the quarter sweep ``integral_0^alpha V_A``
        (whose total is 1/2) that `build_sweep`'s series gives by
        quadrature.  In the form ``x = a cos(psi)**(2/m)``, ``y = h
        sin(psi)**(2/m)`` the sector up to ``alpha`` has area ``A/4 *
        I_z(p, p)``, the regularized incomplete beta function at ``p = 1/m``,
        ``z = sin(psi)**2`` and ``tan(psi) = ((a/h) tan(alpha))**(m/2)``, so
        ``tau = d/dA [A I] = I + A (I_z z_A + I_p p_A)``.

        With ``lam = |log tan(psi)|`` and ``ez = exp(-2 lam)``, the smaller
        of ``z`` and ``1 - z`` is ``ez/(1 + ez)``, and ``E = log1p(ez)`` is
        minus the log of the larger: no power ``(.)**(m/2)``, which
        overflows at ``m = 512``.  For the smaller, DLMF 8.17.8 gives ``I =
        G (1 + T)`` with ``G = (z (1 - z))**p / (p B(p, p))`` and the series
        ``T`` of `_sweep_tail`; above ``z = 1/2``, ``I = 1 - I_{1-z}``.  The
        schedule sets ``a = A/(4 h area_factor(m))``, so ``p B(p, p) = 2
        area_factor(m) = A/(2 a h)``, and differentiating ``log A`` gives
        ``A m_A d(log area_factor)/dm = 1 - kappa - eta`` with ``kappa = A
        a_A/a`` and ``eta = A h_A/h``.  The normaliser's p-derivative then
        cancels against ``I``, as the ``log tan(alpha)`` terms of ``z_A``
        and ``I_p`` cancel each other, which leaves ``tau = G W`` for ``z <=
        1/2`` and ``1 - tau = G W`` above, where ``W = X (2 + T) + (Y + 2 c
        lam) T + c (2 E (1 + T) - T_p)``, ``c = A m_A/m**2`` and ``(X, Y)``
        is ``(kappa, eta)``, or ``(eta, kappa)`` above.  Its leading term
        ``2 X`` is positive and the others are ``O(z)``, so ``tau`` keeps
        its relative accuracy as ``alpha -> 0``, where the terms of the
        literal form cancel.

        Up to `_FLOAT_POINTS` rows take `_sweep_tail` in Python floats, by
        the same steps as an array, so a value does not depend on its batch.
        """
        h, a, m, hp, ap, mp = sched[:6]
        p = 1.0 / m
        # tan(psi)**p = t and (z (1 - z))**p = min(t, 1/t) exp(-2 p E): the
        # power is formed from t, as exp(-2 p lam) would scale the rounding
        # of lam by |log t| (690 at alpha = 1e-300)
        t = np.tan(alpha)
        t *= a / h
        upper = t > 1.0
        lam = np.abs(np.log(t))
        lam *= 0.5 * m
        ez = np.exp(-2.0 * lam)  # the smaller of z and 1 - z over the larger
        E = np.log1p(ez)
        G = np.exp(-2.0 * p * E)
        G *= np.where(upper, 1.0 / t, t)
        G *= 2.0 * a * h / A
        kappa, eta = A * ap / a, A * hp / h
        X, Y = np.where(upper, eta, kappa), np.where(upper, kappa, eta)
        args = (ez, p, G, lam, E, X, Y, A * mp * p * p)
        if ez.size > _FLOAT_POINTS:
            GW = _sweep_tail(*args)
        else:
            rows = zip(*(x.ravel().tolist() for x in args))
            GW = np.array([_sweep_tail(*row) for row in rows]).reshape(ez.shape)
        return np.where(upper, 1.0 - GW, GW)

    def row_blocks(self, N):
        """Fixed slices of ``N`` rows, each about `_SWEEP_ELEMS` node values."""
        rows = max(1, _SWEEP_ELEMS // (self.ncheb + 1))
        return [slice(i, i + rows) for i in range(0, N, rows)]

    def build_sweep(self, sched, order=0, tau4=None):
        """Antiderivative of the angular area-sweep density for each row.

        ``sched`` is the rows' `schedule` jet, to at least ``order + 1``.
        Returns ``(b, total, wp)``: Chebyshev coefficients of ``s ->
        integral_0^alpha(s) dV/dA``, its value at ``alpha = pi/2``, and the
        warp parameters.  Since the enclosed area equals twice the integral
        of ``V`` over a quarter period, ``total`` is exactly 1/2; the
        computed value is kept as the normalizer so that quadrature error
        cancels from the sweep fraction.  ``order=1`` appends ``(bA,
        totalA)``, the same integral of ``d2V/dA2`` over the same warped
        contour (needed by the closed-form Jacobian).  Given sweep fractions
        ``tau4``, it appends `solve_angle`'s node bracket of each row's
        target ``tau4 * total`` (see `_node_bracket`).

        The node grid is evaluated in `row_blocks`, so beyond the returned
        ``(N, ncheb+2)`` coefficients the temporaries are O(`_SWEEP_ELEMS`).
        A block's coefficients are bracketed while they are row-major and in
        cache, before they are copied into the column-major result.
        """
        wp = self.warp_params(sched)
        N = wp[0].size
        s = self.xnodes[None, :]
        # column-major, so `clenshaw` reads contiguous columns without a copy
        out = [np.empty((N, self.ncheb + 2), order="F") for _ in range(order + 1)]
        totals = [np.empty(N) for _ in range(order + 1)]
        if tau4 is not None:
            bracket = (np.empty(N, dtype=np.intp), np.empty(N), np.empty(N))
        work = dct_work(self.ncheb, N)
        for sl in self.row_blocks(N):
            rows = tuple(x[sl, None] for x in sched)
            wp_col = tuple(x[sl, None] for x in wp)
            density = self.sweep_density(rows, s, wp_col, order)
            for k, g in enumerate(density):
                # the density grid is not needed again: its coefficients
                # are written over it
                c = cheb_antideriv(cheb_coeffs(g, work, g))
                # the series at alpha = pi/2, i.e. s = 1, where every T_k is 1
                totals[k][sl] = c.sum(-1)
                if k == 0 and tau4 is not None:
                    found = _node_bracket(c, totals[0][sl], tau4[sl], work)
                    for x, y in zip(bracket, found):
                        x[sl] = y
                out[k][sl] = c
            del density, g, c  # freed before the next block's grid is built
        extra = (bracket,) if tau4 is not None else ()
        return (out[0], totals[0], wp, *out[1:], *totals[1:], *extra)

    def sweep_density(self, sched, s, wp, order=0):
        """``(V_A * alpha'(s),)``: the s-derivative of the `build_sweep` series
        at abscissae ``s``; ``order=1`` appends the same with ``V_AA``."""
        alpha, dal = self.warp(s, wp)
        jet = self.radius_jet(sched, alpha, order + 1)[1:]
        for v in jet:
            v *= dal
        return jet

    def solve_angle(self, sched, b, total, wp, tau4, bracket):
        """Invert the quarter sweep: find alpha with Phi(alpha)/total = tau4.

        ``sched`` is the rows' `schedule` jet, to at least first order, and
        ``bracket`` the node bracket `build_sweep` returns for ``tau4``.
        Newton steps on the cubic Hermite through the bracket's node values
        and `sweep_density` give the start; a fixed number of safeguarded
        Newton steps on the series (a `clenshaw` value, `sweep_density`
        slope) finish, so a point's result does not depend on its batch.  An
        iterate whose residual is within the series' rounding is latched, so
        neither a stale bracket nor rounding noise displaces it; near the
        ends, where the target may be below that noise, the start from the
        exact end value is what resolves the angle.
        """
        target = tau4 * total
        j, f_lo, f_hi = bracket
        lo, hi = self.xnodes[j], self.xnodes[j - 1]
        # the cubic Hermite through the node values and slopes, less f_lo,
        # in t = (s - lo) / ds:  t * (g0 + t * (c2 + t * c3))
        ds, df, rhs = hi - lo, f_hi - f_lo, target - f_lo
        ends = np.stack([lo, hi], -1)
        cols = [tuple(x[:, None] for x in v) for v in (sched, wp)]
        g0, g1 = (ds[:, None] * self.sweep_density(cols[0], ends, cols[1])[0]).T
        c2, c3 = 3.0 * df - 2.0 * g0 - g1, g0 + g1 - 2.0 * df
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(df > 0.0, np.clip(rhs / df, 0.0, 1.0), 0.5)  # secant
            for _ in range(_HERMITE_STEPS):
                res = t * (g0 + t * (c2 + t * c3)) - rhs
                t_new = t - res / (g0 + t * (2.0 * c2 + t * (3.0 * c3)))
                t = np.where(np.isfinite(t_new), np.clip(t_new, 0.0, 1.0), t)
        s = lo + t * ds
        noise = _SERIES_ROUNDOFF * total
        for _ in range(_NEWTON_STEPS):
            val = clenshaw(b, s) - target
            lo, hi = np.where(val < 0.0, s, lo), np.where(val > 0.0, s, hi)
            der = self.sweep_density(sched, s, wp)[0]
            with np.errstate(divide="ignore", invalid="ignore"):
                s_new = s - val / der
            ok = np.isfinite(s_new) & (der > 0.0)
            # clamp overshoots onto the bracket: a root within an ulp of an
            # endpoint must be landed on, not bisected toward forever
            s_new = np.where(ok, np.clip(s_new, lo, hi), 0.5 * (lo + hi))
            s = np.where(np.abs(val) <= noise, s, s_new)
        alpha = self.warp(s, wp)[0]
        alpha = np.where(tau4 <= 0.0, 0.0, np.where(tau4 >= 1.0, np.pi / 2.0, alpha))
        s = np.where(tau4 <= 0.0, -1.0, np.where(tau4 >= 1.0, 1.0, s))
        return alpha, s


@functools.lru_cache(maxsize=16)
def _engine(params: PackingParams) -> _CurveEngine:
    return _CurveEngine(params)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def shape_schedule(A, params: PackingParams):
    """Half-height, half-width and exponent of the level curve at area ``A``.

    Parameters
    ----------
    A : float or ndarray
        Enclosed area(s), each in ``(0, pi*r**2)``.
    params : PackingParams

    Returns
    -------
    h, a, m : float or ndarray
        Half-height, half-width, exponent.  ``h < A/(2*pi) + epsilon/2``
        and ``a < pi/2`` hold throughout, and all three grow strictly
        with ``A``.

    Raises
    ------
    ScheduleInfeasible
        If no admissible schedule exists for these parameters.
    ValueError
        If some ``A`` lies outside ``(0, pi*r**2)``.
    """
    eng = _engine(params)
    A_arr = np.asarray(A, dtype=float)
    _check_areas(A_arr, params.area_max)
    h, a, m = eng.schedule(A_arr)
    if np.isscalar(A) or np.ndim(A) == 0:
        return float(h), float(a), float(m)
    return h, a, m

