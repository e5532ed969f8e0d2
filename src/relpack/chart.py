"""Action-angle chart of the affine ball model and the composed embedding.

The target of the packing is modeled by the open unit ball in C^n: each
rectangle factor ``(Q, P)`` with ``Q`` in ``(0, pi)`` and ``P`` in the open
simplex corresponds to the complex coordinate ``z = sqrt(P) * exp(2i*Q)``.
The doubled angle is forced by area accounting: the factor rectangle has
``Q``-extent ``pi`` but the circle action is ``2*pi``-periodic, and only
with the factor 2 does ``dx ^ dy`` pull back exactly to ``dP ^ dQ`` (the
one-factor Jacobian of ``(P, Q) -> (x, y)`` is identically 1).

The torus of interest is the set where every action equals ``c = 1/(n+1)``;
`clifford_distance` measures the max-norm distance to it in action space.
`full_embedding` composes the product disc map with this chart, giving the
packing of the ball whose real slice ``{p = 0}`` lands exactly on the torus.
"""

from __future__ import annotations

import numpy as np

from .discmap import phi
from .errors import BranchBoundary, NotInDomain, OnAxes
from .params import PackingParams

__all__ = [
    "domain_slack",
    "moment_map",
    "chart_j",
    "chart_j_inv",
    "full_embedding",
    "clifford_distance",
    "chart_symplectic_check",
]

_FD_STEP = 1e-5  # central-difference step of `chart_symplectic_check`


def domain_slack(coords):
    """Least slack of the open chart domain (box times simplex), per point.

    The minimum of ``Q_k``, ``pi - Q_k``, ``P_k`` and ``1 - sum P_k`` over a
    point's coordinates ``(Q1, P1, ..., Qn, Pn)``: positive exactly on the
    domain, and NaN where a coordinate is NaN.
    """
    coords = np.asarray(coords, dtype=float)
    Q = coords[..., 0::2]
    P = coords[..., 1::2]
    return np.minimum(
        np.min(np.minimum(Q, np.pi - Q), axis=-1),
        np.minimum(np.min(P, axis=-1), 1.0 - np.sum(P, axis=-1)),
    )


def moment_map(z):
    """Action coordinates ``(|z_1|**2, ..., |z_n|**2)`` of a chart point."""
    z = np.asarray(z, dtype=complex)
    return (z * z.conj()).real


def chart_j(coords):
    """Chart map ``(Q_k, P_k) -> z_k = sqrt(P_k) * exp(2i*Q_k)``.

    Parameters
    ----------
    coords : array_like, shape (..., 2n)
        Rectangle coordinates ``(Q1, P1, ..., Qn, Pn)`` inside the chart
        domain (open box times open simplex).

    Returns
    -------
    ndarray of complex, shape (..., n)

    Raises
    ------
    NotInDomain
        If some point has no positive `domain_slack`.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[-1] // 2
    if coords.shape[-1] != 2 * n or n == 0:
        raise ValueError(f"expected even trailing dimension, got {coords.shape}")
    if not np.all(domain_slack(coords) > 0.0):
        raise NotInDomain("point outside the open chart domain (box x simplex)")
    return np.sqrt(coords[..., 1::2]) * np.exp(2j * coords[..., 0::2])


def chart_j_inv(z):
    """Invert `chart_j` on the locus where the torus action is free.

    Returns
    -------
    ndarray, shape (..., 2n)
        Rectangle coordinates with ``P_k = |z_k|**2`` and
        ``Q_k = arg(z_k)/2`` reduced to ``(0, pi)``.

    Raises
    ------
    ValueError
        If some ``z_k`` is not finite.
    OnAxes
        If some ``z_k = 0`` (the angle is undefined there).
    BranchBoundary
        If some ``arg(z_k) = 0``, which would need ``Q_k`` in {0, pi},
        outside the open box.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("chart_j_inv needs finite coordinates")
    P = moment_map(z)
    if np.any(P == 0.0):
        raise OnAxes("chart angle undefined where a coordinate vanishes")
    theta = np.angle(z)  # in (-pi, pi]
    if np.any(theta == 0.0):
        raise BranchBoundary("argument 0 corresponds to the closed box boundary")
    Q = np.where(theta > 0.0, theta, theta + 2.0 * np.pi) / 2.0
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = Q
    out[..., 1::2] = P
    return out


def full_embedding(coords, params: PackingParams):
    """The composed packing: disc map each factor, then the chart.

    Parameters
    ----------
    coords : array_like, shape (..., 2n)
        Ball coordinates ``(q1, p1, ..., qn, pn)`` with ``sum u_i < r**2``.
    params : PackingParams

    Returns
    -------
    ndarray of complex, shape (..., n)
        A point of the open unit ball in C^n; it lies on the torus of
        actions ``c`` exactly when every source ``p_i`` vanishes.
    """
    return chart_j(phi(coords, params))


def clifford_distance(z, params: PackingParams):
    """Max-norm action distance ``max_k | |z_k|**2 - c |`` to the torus."""
    dist = np.max(np.abs(moment_map(z) - params.c), axis=-1)
    if dist.ndim == 0:
        return float(dist)
    return dist


def chart_symplectic_check(coords):
    """Numerical pullback defect of the chart at the given points.

    Differentiates `chart_j` (viewed as a map into R^{2n}) by central
    differences and returns the max-norm of ``J^T Omega_std J - Omega_pq``
    per point, where ``Omega_std`` is the standard form on the ``(x, y)``
    pairs and ``Omega_pq`` the coordinate form ``sum dP ^ dQ``.  Exactly
    zero in exact arithmetic; the returned defect is finite-difference
    truncation plus rounding, which degrades as some ``P_k -> 0``.

    Parameters
    ----------
    coords : array_like, shape (..., 2n)
        Chart-domain points with every ``Q_k`` at distance at least 1e-6
        from {0, pi} (so the difference stencil stays in the domain).

    Returns
    -------
    float or ndarray
        Max-norm defect per point.
    """
    coords = np.asarray(coords, dtype=float)
    scalar = coords.ndim == 1
    pts = coords.reshape(-1, coords.shape[-1])
    n = pts.shape[-1] // 2
    Q = pts[..., 0::2]
    P = pts[..., 1::2]
    if np.any(Q < 1e-6) or np.any(Q > np.pi - 1e-6):
        raise ValueError("angle coordinates must keep 1e-6 clearance from {0, pi}")
    if np.any(P <= _FD_STEP) or np.any(np.sum(P, axis=-1) >= 1.0 - _FD_STEP):
        raise ValueError("actions must clear the simplex boundary by the step")

    def to_real(c):
        z = chart_j(c)
        out = np.empty(c.shape, dtype=float)
        out[..., 0::2] = z.real
        out[..., 1::2] = z.imag
        return out

    npts, dim = pts.shape
    J = np.empty((npts, dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = _FD_STEP
        J[:, :, j] = (to_real(pts + e) - to_real(pts - e)) / (2.0 * _FD_STEP)

    omega_xy = np.zeros((dim, dim))
    omega_pq = np.zeros((dim, dim))
    for i in range(n):
        # on (x_i, y_i): dx ^ dy;  on (Q_i, P_i): dP ^ dQ
        omega_xy[2 * i, 2 * i + 1] = 1.0
        omega_xy[2 * i + 1, 2 * i] = -1.0
        omega_pq[2 * i, 2 * i + 1] = -1.0
        omega_pq[2 * i + 1, 2 * i] = 1.0

    defect = np.einsum("kia,ij,kjb->kab", J, omega_xy, J) - omega_pq
    worst = np.max(np.abs(defect), axis=(-2, -1))
    if scalar:
        return float(worst[0])
    return worst.reshape(coords.shape[:-1])
