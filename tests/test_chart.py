"""Action-angle chart: values, branch handling, and the pullback identity."""

import numpy as np
import pytest

from relpack import (
    BranchBoundary,
    NotInDomain,
    OnAxes,
    chart_j,
    chart_j_inv,
    chart_symplectic_check,
    clifford_distance,
    domain_slack,
    full_embedding,
    moment_map,
)


def test_chart_pinned_values():
    z = chart_j(np.array([np.pi / 2.0, 0.25, np.pi / 4.0, 0.25]))
    assert z[0] == pytest.approx(-0.5 + 0.0j, abs=1e-15)
    assert z[1] == pytest.approx(0.0 + 0.5j, abs=1e-15)


def test_moment_map_recovers_action(rng):
    n = 2
    Q = rng.uniform(0.01, np.pi - 0.01, (500, n))
    P = rng.uniform(0.01, 0.45, (500, n))
    coords = np.empty((500, 2 * n))
    coords[:, 0::2] = Q
    coords[:, 1::2] = P
    z = chart_j(coords)
    assert np.max(np.abs(moment_map(z) - P)) <= 1e-15


def test_chart_round_trip(rng):
    n = 3
    Q = rng.uniform(1e-3, np.pi - 1e-3, (300, n))
    P = rng.uniform(0.01, 0.30, (300, n))
    coords = np.empty((300, 2 * n))
    coords[:, 0::2] = Q
    coords[:, 1::2] = P
    back = chart_j_inv(chart_j(coords))
    assert np.max(np.abs(back - coords)) <= 1e-12


def test_chart_inverse_branches():
    # angle pi/2 sits opposite the branch cut and round-trips exactly
    z = chart_j(np.array([np.pi / 2.0, 0.25]))
    assert np.allclose(chart_j_inv(z), [np.pi / 2.0, 0.25], atol=1e-15)
    with pytest.raises(OnAxes):
        chart_j_inv(np.array([0.0 + 0.0j]))
    with pytest.raises(BranchBoundary):
        chart_j_inv(np.array([0.3 + 0.0j]))  # positive real axis
    # NaN compares False with 0, so it would slip past both tests above
    for bad in (complex(np.nan, 0.0), complex(0.3, np.inf),
                complex(-np.inf, 0.1)):
        with pytest.raises(ValueError):
            chart_j_inv(np.array([bad, 0.3 + 0.1j]))


def test_chart_domain_validation():
    with pytest.raises(NotInDomain):
        chart_j(np.array([-0.1, 0.25, 1.0, 0.25]))  # angle at/below 0
    with pytest.raises(NotInDomain):
        chart_j(np.array([np.pi, 0.25, 1.0, 0.25]))  # angle at pi
    with pytest.raises(NotInDomain):
        chart_j(np.array([1.0, 0.0, 1.0, 0.25]))  # action at 0
    with pytest.raises(NotInDomain):
        chart_j(np.array([1.0, 0.6, 1.0, 0.5]))  # actions sum past 1


def test_domain_slack_predicates(p28):
    good = np.array([1.0, 0.3, 2.0, 0.3])
    assert domain_slack(good) == 0.3  # the least action
    assert not domain_slack(np.array([0.0, 0.3, 2.0, 0.3])) > 0.0  # box
    assert not domain_slack(np.array([1.0, 0.55, 2.0, 0.5])) > 0.0  # simplex
    # NaN and infinities have no positive slack, so chart_j rejects them
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(4):
            x = good.copy()
            x[i] = bad
            assert not domain_slack(x) > 0.0
            with pytest.raises(NotInDomain):
                chart_j(x)
    pts = np.array([good, [1.0, 0.55, 2.0, 0.5]])
    assert np.array_equal(domain_slack(pts) > 0.0, [True, False])
    level = np.array([1.0, 1.0 / 3.0, 2.0, 1.0 / 3.0])
    assert clifford_distance(chart_j(level), p28) <= 1e-12
    assert not clifford_distance(chart_j(good), p28) <= 1e-12


def test_one_factor_jacobian_is_area_reversing():
    # analytic check of the orientation convention: with columns ordered
    # (angle, action), the real Jacobian of sqrt(P)*exp(2iQ) has det -1
    for Q, P in ((0.7, 0.2), (2.2, 0.4), (np.pi / 2, 1.0 / 3.0)):
        sp = np.sqrt(P)
        J = np.array(
            [
                [-2.0 * sp * np.sin(2 * Q), np.cos(2 * Q) / (2.0 * sp)],
                [2.0 * sp * np.cos(2 * Q), np.sin(2 * Q) / (2.0 * sp)],
            ]
        )
        assert np.linalg.det(J) == pytest.approx(-1.0, abs=1e-14)
        omega_xy = np.array([[0.0, 1.0], [-1.0, 0.0]])
        pulled = J.T @ omega_xy @ J
        assert np.allclose(pulled, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)


def test_symplectic_defect_small_inside(rng):
    n = 2
    Q = rng.uniform(0.2, np.pi - 0.2, (200, n))
    P = rng.uniform(0.05, 0.40, (200, n))
    coords = np.empty((200, 2 * n))
    coords[:, 0::2] = Q
    coords[:, 1::2] = P
    defect = chart_symplectic_check(coords)
    assert defect.shape == (200,)
    assert defect.max() < 1e-6
    # scalar input gets a scalar defect
    assert isinstance(chart_symplectic_check(coords[0]), float)


def _symplectic_check_einsum(coords):
    """The pullback defect as a three-operand einsum over Omega_std."""
    pts = np.atleast_2d(coords)
    npts, dim = pts.shape

    def to_real(c):
        z = chart_j(c)
        out = np.empty(c.shape)
        out[:, 0::2], out[:, 1::2] = z.real, z.imag
        return out

    J = np.empty((npts, dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1e-5
        J[:, :, j] = (to_real(pts + e) - to_real(pts - e)) / (2.0 * 1e-5)
    omega_xy = np.zeros((dim, dim))
    omega_pq = np.zeros((dim, dim))
    for i in range(dim // 2):
        omega_xy[2 * i, 2 * i + 1], omega_xy[2 * i + 1, 2 * i] = 1.0, -1.0
        omega_pq[2 * i, 2 * i + 1], omega_pq[2 * i + 1, 2 * i] = -1.0, 1.0
    defect = np.einsum("kia,ij,kjb->kab", J, omega_xy, J) - omega_pq
    return np.max(np.abs(defect), axis=(-2, -1))


@pytest.mark.parametrize("n", range(1, 7))
def test_symplectic_check_matches_the_einsum(n, rng):
    # the pullback from the x and y rows of J has the einsum's bits, on
    # points across the domain, near its walls and one at a time
    npts = 300
    P = rng.dirichlet(np.ones(n + 1), npts)[:, :n] * (1.0 - 4e-5) + 1.1e-5
    Q = rng.uniform(2e-5, np.pi - 2e-5, (npts, n))
    Q[:5] = np.where(rng.random((5, n)) < 0.5, 2e-5, np.pi - 2e-5)
    coords = np.empty((npts, 2 * n))
    coords[:, 0::2], coords[:, 1::2] = Q, P
    ref = _symplectic_check_einsum(coords)
    assert np.array_equal(chart_symplectic_check(coords), ref)
    assert np.array_equal(chart_symplectic_check(coords.reshape(3, 100, 2 * n)),
                          ref.reshape(3, 100))
    for k in (0, 1, npts - 1):
        assert chart_symplectic_check(coords[k]) == ref[k]


def test_symplectic_check_guards_stencil():
    # the finite-difference stencil must not poke out of the chart domain
    with pytest.raises(ValueError):
        chart_symplectic_check(np.array([[1.0, 1e-9, 1.0, 0.3]]))
    with pytest.raises(ValueError):
        chart_symplectic_check(np.array([[1e-9, 0.3, 1.0, 0.3]]))
    with pytest.raises(ValueError, match="clearance"):
        chart_symplectic_check(np.array([5e-7, 0.3, 1.0, 0.3]))
    # angles between the 1e-6 clearance and the 1e-5 step keep the contract
    for q in (2e-6, np.pi - 2e-6):
        assert chart_symplectic_check(np.array([q, 0.3, 1.0, 0.3])) < 1e-6
    # odd or empty trailing dimensions, NaN and infinities are rejected
    for dim in (0, 1, 3):
        with pytest.raises(ValueError, match="even trailing dimension"):
            chart_symplectic_check(np.full((2, dim), 0.3))
    for k in range(4):
        for bad in (np.nan, np.inf, -np.inf):
            x = np.array([[1.0, 0.3, 1.0, 0.3]])
            x[0, k] = bad
            with pytest.raises(ValueError):
                chart_symplectic_check(x)


def test_full_embedding_basepoint(p28):
    z = full_embedding(np.zeros(4), p28)
    assert np.allclose(z, -np.sqrt(1.0 / 3.0), atol=1e-12)
    assert np.max(np.abs(z.imag)) < 1e-15
    assert clifford_distance(z, p28) <= 1e-15
    assert np.sum(np.abs(z) ** 2) < 1.0


def test_clifford_distance_signs(p28):
    z = full_embedding(np.array([0.1, 0.2, -0.3, 0.0]), p28)
    d = clifford_distance(z, p28)
    assert d > 0.0
    mom = moment_map(z)
    assert mom[0] > p28.c  # p1 > 0 pushes the first action up
    assert abs(mom[1] - p28.c) <= 1e-15  # second factor rides the midline


def test_embedding_off_diameter_positive(p28, rng):
    from conftest import ball_points

    pts = ball_points(rng, p28, 200)
    pts[:, 1] = np.abs(pts[:, 1]) + 1e-6  # force off-diameter
    keep = np.einsum("ij,ij->i", pts, pts) < p28.r**2 * (1.0 - 1e-9)
    for x in pts[keep][:50]:
        z = full_embedding(x, p28)
        assert clifford_distance(z, p28) > 0.0
