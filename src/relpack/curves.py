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

Everything downstream (the area-preserving disc map, its inverse and
Jacobian, and the area oracle) consumes this module through a per-parameter
engine holding the fitted schedule.  The engine writes each quantity once,
as a jet whose ``order`` argument selects how many ``A``-derivatives to
append: ``schedule`` for ``(h, a, m)``, ``radius_jet`` for the squared polar
radius, and ``sweep_fraction`` for the share of the area sweep up to a polar
angle, in closed form through the incomplete beta function, so the map, its
inverse and its Jacobian evaluate the same formulas with no quadrature.  All
but ``schedule`` take a row's schedule jet, so a map call computes it once
for every step.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ScheduleInfeasible
from .params import PackingParams

__all__ = ["area_factor", "shape_schedule"]

# Sharpness of the smooth minimum blending the round-regime height ``rho``
# with the band cap; also the largest exponent the schedule may request.
_BLEND_K = 6.0
_M_MAX = 512.0
# Floor of the log-ratio ``u`` in `radius_jet`'s derivative terms: below it
# ``exp(m*u/2)`` is 0 for every exponent ``m >= 2``, so the floor changes no
# value; it only keeps ``u = -inf`` (on the axis ``alpha = 0``) out of the
# products ``0 * u``.
_U_FLOOR = -1e3
# Up to this many rows `sweep_fraction` sums its series in Python floats: on
# a few rows a numpy call per term costs about a microsecond, a float step
# 0.07 per row.
_FLOAT_POINTS = 8
# `_log_area_factor`: Gamma factors peeled off, then terms of the series in
# 1/m; `_BERNOULLI` holds B_2 .. B_16 for `_hurwitz_zeta`.
_GAMMA_PEEL = 8
_GAMMA_TERMS = 21
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
# `_fit_exponent`: step cap, and the relative step in m**-2 that ends it.
_FIT_STEPS = 60
_FIT_TOL = 2.0**-50
# Terms of `sweep_fraction`'s hypergeometric series, at most: each is at
# most z <= 1/2 times the one before, so at z = 1/2 the rest is below
# 2**-56.  A row sums K(z) = min(_BETA_TERMS, ceil(64 ln 2 / -ln z)) terms
# (`_term_count`), so z**K <= 2**-64: the omitted terms add up to at most
# 2**-63 z, while the first term is at least z/257 (p >= 1/512), so they
# lie below half an ulp of T, and the sums are bitwise those of all
# _BETA_TERMS terms (checked for T, T_p and the three second-order sums at
# every boundary of K).
_BETA_TERMS = 56
_LN2_64 = 64.0 * math.log(2.0)
# `_series_rows` carries its last this many live rows on in Python floats,
# whose steps cost less there than a numpy call per step.
_TAIL_ROWS = 24


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

    One to `_FLOAT_POINTS` values are evaluated one at a time in Python
    floats, by the same steps in the same order as an array, so a value
    does not depend on its batch (as in `sweep_fraction`).
    """
    m = np.asarray(m, dtype=float)
    if not 0 < m.size <= _FLOAT_POINTS:
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


def _check_areas(A, area_max):
    """Raise ValueError unless every ``A`` lies in ``(0, area_max)``; NaN fails."""
    if not np.all((A > 0.0) & (A < area_max)):
        raise ValueError(f"area must lie in (0, {area_max!r})")


def _sweep_tail(ez, p, G, lam, E, X, Y, c, *second):
    """``(G W,)``, the last steps of `sweep_fraction`, on floats or arrays.

    With ``z = ez/(1 + ez)``, sums ``T = sum_{k>=1} (2p)_k/(p+1)_k z**k``
    and its p-derivative ``T_p`` over the row's own `_term_count` of terms
    (`_series_row` on floats, `_series_rows` on arrays), in which a term's
    log-derivative ``D_k`` is the running sum of ``2/(2p+j) - 1/(p+1+j) =
    (j+2)/((2p+j)(p+1+j))``.  Given four more arguments ``(X2, Y2, c2,
    m)``, the parts of ``A d/dA`` of ``(X, Y, c)`` past ``(X, Y, c)``
    themselves, it appends ``A d(G W)/dA`` at fixed angle.  That takes ``z
    T_z = sum k s_k``, ``z T_pz = sum k s_k D_k`` and ``T_pp = sum s_k
    (D_k**2 + D_k')`` from the same loop, and the derivatives of ``lam``,
    ``E`` and ``z`` from ``A lam_A = m (c lam + (Y - X)/2)``.  Since
    ``-ln z = 2 lam + E``, the term count needs no log of its own.
    """
    z = ez / (1.0 + ez)
    if isinstance(z, float):
        ns = 5 if second else 2
        sums = _series_row(z, p, _term_count(2.0 * lam + E), 0,
                           [0.0] * ns + [1.0, 0.0, 0.0])
    else:
        sums = _series_rows(z, p, 2.0 * lam + E, bool(second))
    T, Tp = sums[:2]
    W = X * (2.0 + T) + (Y + 2.0 * c * lam) * T + c * (2.0 * E * (1.0 + T) - Tp)
    if not second:
        return (G * W,)
    # A d/dA of lam, E, z (over z), T and T_p; A p_A = -c
    Tk, Tpz, Tpp = sums[2:5]
    X2, Y2, c2, m = second
    dlam = m * (c * lam + 0.5 * (Y - X))
    dE = -2.0 * z * dlam
    dz = -2.0 * (1.0 - z) * dlam
    dT = dz * Tk - c * Tp
    dTp = dz * Tpz - c * Tpp
    # A d(log G)/dA + 1, which is A V_A / V at this angle
    N = 2.0 * ((1.0 - z) * X + z * Y + c * (E + 2.0 * z * lam))
    # A dW/dA - W
    dW = (X2 * (2.0 + T) + (Y2 + 2.0 * (c2 * lam + c * dlam)) * T
          + 2.0 * (c2 * E + c * dE) * (1.0 + T) - c2 * Tp
          + (X + Y + 2.0 * c * (lam + E)) * dT - c * dTp)
    return G * W, G * (W * N + dW)


def _term_count(lz):
    """Terms of the series that rows at ``-ln z = lz`` sum.

    ``min(_BETA_TERMS, ceil(64 ln 2 / lz))``, 1 at ``z = 0`` and
    `_BETA_TERMS` for NaN: an int for a float, else a ``uint8`` array.
    """
    if isinstance(lz, float):
        if not lz > 0.0:
            return _BETA_TERMS
        return min(_BETA_TERMS, max(1, math.ceil(_LN2_64 / lz)))
    K = np.ceil(_LN2_64 / lz)
    np.maximum(K, 1.0, out=K)
    return np.fmin(K, _BETA_TERMS, out=K).astype(np.uint8)


def _series_row(z, p, K, start, state):
    """One row's series `state` carried from term ``start`` up to ``K``.

    ``state`` is a list of Python floats: the sums ``[T, T_p]``, or ``[T,
    T_p, z T_z, z T_pz, T_pp]``, then the running term ``s``, its
    log-derivative ``D`` and ``D'``.  Returns the state after term ``K -
    1``.  The steps are those of `_series_rows`, in the same order.
    """
    second = len(state) == 8
    T, Tp, *rest = state
    Tk, Tpz, Tpp, s, D, D1 = rest if second else [0.0] * 3 + rest
    tp, p1 = 2.0 * p, p + 1.0
    for j in range(start, K):
        u, v = tp + j, p1 + j
        s = s * u / v * z
        T += s
        uv = u * v
        D += (j + 2.0) / uv
        Tp += s * D
        if second:
            # d/dp of (j+2)/(u v), with u' = 2 and v' = 1
            D1 -= (j + 2.0) * (2.0 * v + u) / (uv * uv)
            ks = (j + 1.0) * s
            Tk += ks
            Tpz += ks * D
            Tpp += s * (D * D + D1)
    return [T, Tp, Tk, Tpz, Tpp, s, D, D1] if second else [T, Tp, s, D, D1]


def _series_rows(z, p, lz, second):
    """The sums of `_series_row` on arrays, a ``(2, ...)`` or ``(5, ...)`` array.

    The rows are sorted once by `_term_count`, most first, so that term
    ``j`` runs on the prefix of rows that sum more than ``j`` terms, in
    buffers allocated once.  Once at most `_TAIL_ROWS` rows remain, each
    is finished by `_series_row`.  The sums are scattered back to the input
    order.
    """
    shape = np.broadcast_shapes(z.shape, np.shape(p), np.shape(lz))
    z, p, lz = (np.broadcast_to(x, shape).ravel() for x in (z, p, lz))
    K = _term_count(lz)
    order = np.argsort(_BETA_TERMS - K, kind="stable")  # radix sort on a byte
    # live[j]: how many rows sum term j
    live = (z.size - np.cumsum(np.bincount(K, minlength=_BETA_TERMS + 1)))[:-1]
    z, p, K = z[order], p[order], K[order]
    tp, p1 = 2.0 * p, p + 1.0
    # the state of `_series_row`, one row per quantity
    ns = 5 if second else 2
    state = np.zeros((ns + 3, z.size))
    state[ns] = 1.0
    u, v, uv, w = np.empty((4, z.size))
    x = np.empty(z.size) if second else None
    for j, n in enumerate(live.tolist()):
        if n <= _TAIL_ROWS:
            rows = zip(z[:n].tolist(), p[:n].tolist(), K[:n].tolist(),
                       state[:, :n].T.tolist())
            state[:, :n] = np.transpose([_series_row(*r[:3], j, r[3]) for r in rows])
            break
        T, Tp, *rest = state[:, :n]
        Tk, Tpz, Tpp, s, D, D1 = rest if second else [None] * 3 + rest
        uj, vj, uvj, wj = u[:n], v[:n], uv[:n], w[:n]
        np.add(tp[:n], j, out=uj)
        np.add(p1[:n], j, out=vj)
        s *= uj
        s /= vj
        s *= z[:n]
        T += s
        np.multiply(uj, vj, out=uvj)
        D += np.divide(j + 2.0, uvj, out=wj)
        Tp += np.multiply(s, D, out=wj)
        if second:
            xj = x[:n]
            np.multiply(2.0, vj, out=xj)
            xj += uj
            xj *= j + 2.0
            uvj *= uvj
            D1 -= np.divide(xj, uvj, out=xj)
            np.multiply(j + 1.0, s, out=xj)
            Tk += xj
            Tpz += np.multiply(xj, D, out=xj)
            np.multiply(D, D, out=wj)
            wj += D1
            Tpp += np.multiply(s, wj, out=wj)
    sums = np.empty((ns, z.size))
    sums[:, order] = state[:ns]
    return sums.reshape((ns,) + shape)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class _CurveEngine:
    """Fitted schedule for one parameter set, and the jets built on it.

    Holds everything that depends only on ``(n, r, epsilon)``: the corner
    margin and the endpoint exponent fit.  All methods are vectorized over
    arrays of areas.  A higher ``order`` only appends derivative terms, so
    leading outputs agree bitwise across orders.
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
        self._validate()

    def _validate(self):
        """Check monotonicity and band containment on a dense area grid."""
        A = np.concatenate([np.geomspace(1e-8 * self.area_max, self.area_max, 400),
                            np.linspace(0.9 * self.area_max, self.area_max, 100)])
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
        axes.  Returns ``V`` at ``order=0`` and ``(V, V_A)`` at ``order=1``
        (``V_A > 0`` iff the curves are nested); ``angle=True`` appends
        ``V_alpha``.  With ``x = log(a**2/cos**2)`` and ``y =
        log(h**2/sin**2)``, ``V = (exp(-m*x/2) + exp(-m*y/2))**(-2/m)``.  Both logs come from one tangent, as
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
        if order:
            hp, ap, mp = sched[3:6]
            g1, g2 = ap / a, hp / h
            # N_A = (log V)' = (m'/m) H + sum_i w_i x_i', where x' = 2 a'/a
            # and y' = 2 h'/h; V_A = V N_A
            N_A = np.multiply(H, mp / m, out=q)
            N_A += 2.0 * g1
            N_A += w2 * (2.0 * (g2 - g1))
            jet += (np.multiply(N_A, V, out=N_A),)
        if angle:
            jet += (w1,)
        return jet if len(jet) > 1 else V

    # -- area sweep ----------------------------------------------------------

    def sweep_fraction(self, A, sched, alpha, order=0):
        """Quarter sweep fraction ``tau(A, alpha)`` of each row, in closed form.

        ``sched`` is the rows' `schedule` jet at areas ``A``, to at least
        ``order + 1``, and ``alpha`` in ``(0, pi/2]`` their quarter angles.
        Returns ``(tau, 1 - tau)``, each formed without cancellation;
        ``order=1`` appends ``tau_A``, the A-derivative at fixed angle.
        ``tau`` is the share of the quarter sweep ``integral_0^alpha V_A``,
        whose total is 1/2, so ``tau_alpha = 2 V_A``.  In the form ``x = a
        cos(psi)**(2/m)``, ``y = h sin(psi)**(2/m)`` the sector up to
        ``alpha`` has area ``A/4 * I_z(p, p)``, the regularized incomplete
        beta function at ``p = 1/m``, ``z = sin(psi)**2`` and ``tan(psi) =
        ((a/h) tan(alpha))**(m/2)``, so ``tau = d/dA [A I] = I + A (I_z z_A
        + I_p p_A)``.

        With ``lam = |log tan(psi)|`` and ``ez = exp(-2 lam)``, the smaller
        of ``z`` and ``1 - z`` is ``ez/(1 + ez)``, and ``E = log1p(ez)`` is
        minus the log of the larger: no power ``(.)**(m/2)``, which
        overflows at ``m = 512``.  For the smaller, DLMF 8.17.8 gives ``I =
        G (1 + T)`` with ``G = (z (1 - z))**p / (p B(p, p))`` and the series
        ``T`` of `_sweep_tail`, which each row sums only as far as its own
        ``z`` needs (`_term_count`: one term at ``z = 1e-20``, all
        `_BETA_TERMS` near ``z = 1/2``); above ``z = 1/2``, ``I = 1 -
        I_{1-z}``.  The schedule sets ``a = A/(4 h area_factor(m))``, so
        ``p B(p, p) = 2 area_factor(m) = A/(2 a h)``, and differentiating
        ``log A`` gives
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

        ``tau_A`` differentiates ``G W`` through the second-order jet (the
        derivatives of the incomplete beta function as in Boik and
        Robison-Cox, J. Stat. Softw. 3(1), 1998): ``A d(log G)/dA + 1`` is
        ``A V_A/V``, and ``X``, ``Y`` and ``c`` enter through the parts of
        ``A d/dA`` past themselves, such as ``A**2 a_AA/a - kappa**2`` for
        ``kappa``, which carry no ``O(kappa)`` cancellation.

        Up to `_FLOAT_POINTS` rows take `_sweep_tail` in Python floats, by
        the same steps as an array, and a row's term count depends on that
        row alone, so a value does not depend on its batch.
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
        G *= np.divide(1.0, t, out=t, where=upper)  # min(t, 1/t)
        G *= 2.0 * a * h / A
        kappa, eta = A * ap / a, A * hp / h
        X, Y = np.where(upper, eta, kappa), np.where(upper, kappa, eta)
        c = A * mp * p * p
        args = (ez, p, G, lam, E, X, Y, c)
        if order:
            hpp, app, mpp = sched[6:9]
            A2 = A * A
            kappa2 = A2 * app / a - kappa * kappa
            eta2 = A2 * hpp / h - eta * eta
            c2 = A2 * mpp * p * p - 2.0 * m * c * c
            X2, Y2 = np.where(upper, eta2, kappa2), np.where(upper, kappa2, eta2)
            args += (X2, Y2, c2, m)
        if ez.size > _FLOAT_POINTS:
            jet = _sweep_tail(*args)
        else:
            rows = zip(*(x.ravel().tolist() for x in args))
            vals = zip(*(_sweep_tail(*row) for row in rows))
            jet = tuple(np.array(v).reshape(ez.shape) for v in vals)
        GW = jet[0]
        out = (np.where(upper, 1.0 - GW, GW), np.where(upper, GW, 1.0 - GW))
        if order:
            out += (np.where(upper, -jet[1], jet[1]) / A,)
        return out


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
    A_arr = np.asarray(A, dtype=float)
    _check_areas(A_arr, params.area_max)
    sched = _engine(params).schedule(A_arr)
    return tuple(map(float, sched)) if A_arr.ndim == 0 else sched

