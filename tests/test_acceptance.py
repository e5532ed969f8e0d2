"""End-to-end acceptance: the full witness run, bound strictness, sharpness,
oracles, Lagrangian exactness, chart correctness, generalization, figure
geometry, and fault injection."""

import csv
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from relpack import (
    chart_symplectic_check,
    chart_j,
    clifford_distance,
    make_params,
    moment_map,
    phi,
    run_all,
)
from relpack.cli import main
from relpack.verify import (
    DEFAULT_TOLERANCES,
    SampleSpec,
    check_curve_areas,
    check_sharpness_identity,
    sample,
)

from _faulty import stretched_maps


# ---------------------------------------------------------------------------
# 1: the full witness run, at scale, within the time budget


def test_full_witness_run_within_budget(tmp_path):
    out = tmp_path / "witness.json"
    t0 = time.monotonic()
    rc = main(
        ["verify", "--n", "2", "--r", "0.8", "--samples", "100000",
         "--seed", "42", "--out", str(out)]
    )
    elapsed = time.monotonic() - t0
    assert rc == 0
    assert elapsed < 60.0
    doc = json.loads(out.read_text())
    assert doc["overall"] is True
    assert len(doc["checks"]) == 9
    assert all(c["passed"] for c in doc["checks"])
    by_name = {c["name"]: c for c in doc["checks"]}
    # strict containment and band margins, exact midline, tight inversion
    assert by_name["containment"]["worst_margin"] > 0.0
    assert by_name["band_margins"]["worst_margin"] > 0.0
    assert by_name["midline"]["tolerance"] == 1e-12
    assert by_name["round_trip"]["tolerance"] == 1e-9
    assert by_name["area_preservation"]["tolerance"] == 1e-6


# ---------------------------------------------------------------------------
# 2: near-bound radius passes, bound and beyond is rejected


def test_near_bound_radius_passes():
    rep = run_all(make_params(2, 0.81), SampleSpec("uniform-ball", 30000, 42))
    assert rep.overall


def test_at_bound_radius_rejected(capsys):
    rc = main(["verify", "--n", "2", "--r", "0.8165", "--samples", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "radius at or above Biran–Cornea bound" in err


# ---------------------------------------------------------------------------
# 3: the saturated area identity, to full precision


@pytest.mark.parametrize("n,r", [(2, 0.8), (2, 0.81), (3, 0.70), (4, 0.60)])
def test_sharpness_identity(n, r):
    p = make_params(n, r)
    assert abs(p.n * p.c + p.r**2 / 2.0 + p.n * p.epsilon - 1.0) <= 1e-15
    rec = check_sharpness_identity(
        SimpleNamespace(params=p), DEFAULT_TOLERANCES["sharpness_identity"])
    assert rec.passed and rec.tolerance == 1e-15


# ---------------------------------------------------------------------------
# 4: the enclosed-area oracle across the area range


def test_curve_area_oracle_geometric_grid():
    rec = check_curve_areas(SimpleNamespace(params=make_params(2, 0.8)), 1e-6)
    assert rec.passed and rec.samples_used == 32


# ---------------------------------------------------------------------------
# 5: diameter points land on the torus, off-diameter points do not


def test_diameter_maps_into_torus():
    p = make_params(2, 0.8)
    pool = sample(SampleSpec("diameter-only", 1000, 101), p)
    worst = 0.0
    for x in pool:
        z = chart_j(phi(x, p))
        worst = max(worst, clifford_distance(z, p))
    assert worst < 1e-12


def test_off_diameter_leaves_torus_with_signs():
    p = make_params(2, 0.8)
    pool = sample(SampleSpec("midline", 1000, 103), p)
    assert np.max(np.abs(pool[:, 1::2])) > 1e-6  # pool spans past tiny offsets
    for x in pool:
        image = phi(x, p)
        z = chart_j(image)
        assert clifford_distance(z, p) > 0.0
        mom = moment_map(z)
        assert np.all(np.sign(mom - p.c) == np.sign(x[1::2]))


# ---------------------------------------------------------------------------
# 6: chart correctness at embedded samples


def test_chart_moment_pullback_and_ball_image():
    p = make_params(2, 0.8)
    pool = sample(SampleSpec("uniform-ball", 1000, 42), p)
    images = np.array([phi(x, p) for x in pool])
    z = chart_j(images)
    assert np.max(np.abs(moment_map(z) - images[:, 1::2])) <= 1e-15
    defect = chart_symplectic_check(images)
    assert defect.max() < 1e-6
    assert np.all(np.sum(np.abs(z) ** 2, axis=-1) < 1.0)


# ---------------------------------------------------------------------------
# 7: three factors, radius below the three-factor bound


def test_three_factor_suite_passes():
    rep = run_all(make_params(3, 0.70), SampleSpec("uniform-ball", 20000, 42))
    assert rep.overall
    assert all(c.passed for c in rep.checks)


# ---------------------------------------------------------------------------
# 8: exported figure geometry


def _proper_crossings(pa, pb):
    """Count transversal interior crossings between two polylines."""
    a0, a1 = pa[:-1], pa[1:]
    b0, b1 = pb[:-1], pb[1:]
    amin, amax = np.minimum(a0, a1), np.maximum(a0, a1)
    bmin, bmax = np.minimum(b0, b1), np.maximum(b0, b1)
    overlap = (
        (amin[:, None, 0] <= bmax[None, :, 0])
        & (amax[:, None, 0] >= bmin[None, :, 0])
        & (amin[:, None, 1] <= bmax[None, :, 1])
        & (amax[:, None, 1] >= bmin[None, :, 1])
    )
    ia, ib = np.nonzero(overlap)
    if ia.size == 0:
        return 0

    def orient(o, d, pt):
        return (d[:, 0] - o[:, 0]) * (pt[:, 1] - o[:, 1]) - (
            d[:, 1] - o[:, 1]
        ) * (pt[:, 0] - o[:, 0])

    d1 = orient(a0[ia], a1[ia], b0[ib])
    d2 = orient(a0[ia], a1[ia], b1[ib])
    d3 = orient(b0[ib], b1[ib], a0[ia])
    d4 = orient(b0[ib], b1[ib], a1[ia])
    return int(np.count_nonzero((d1 * d2 < 0) & (d3 * d4 < 0)))


def _inside(pt, poly):
    """Even-odd ray cast of a horizontal ray from pt."""
    x, y = pt
    x0, y0 = poly[:-1, 0], poly[:-1, 1]
    x1, y1 = poly[1:, 0], poly[1:, 1]
    straddle = (y0 <= y) != (y1 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xhit = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
    return bool(np.count_nonzero(straddle & (xhit > x)) % 2)


def test_figure_polylines_nested_and_disjoint(tmp_path):
    out = tmp_path / "fig.csv"
    rc = main(["figure", "--r", "0.8", "--circles", "8", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    p = make_params(2, 0.8)

    polys = {}
    for cid in range(0, 9):
        pts = np.array(
            [
                (float(r["Q"]), float(r["P"]))
                for r in rows
                if int(r["curve_id"]) == cid
            ]
        )
        polys[cid] = pts

    # closure of every circle image
    for cid in range(1, 9):
        gap = np.abs(polys[cid][0] - polys[cid][-1])
        assert gap.max() <= 1e-9

    # straight midline at the torus level
    diam = polys[0]
    assert np.max(np.abs(diam[:, 1] - 1.0 / 3.0)) <= 1e-12

    # per-circle band bound with the nominal source radius
    for cid in range(1, 9):
        u = (cid / 8.0) ** 2 * p.r**2
        assert np.max(np.abs(polys[cid][:, 1] - 1.0 / 3.0)) <= u / 2.0 + p.epsilon

    # pairwise non-crossing, and each curve nested inside the next
    for i in range(1, 9):
        for j in range(i + 1, 9):
            assert _proper_crossings(polys[i], polys[j]) == 0
    for i in range(1, 8):
        assert _inside(polys[i][0], polys[i + 1])
        assert not _inside(polys[i + 1][0], polys[i])
    # the diameter stays inside every circle image except at its endpoints
    interior = diam[1:-1]
    mid = interior[len(interior) // 2]
    assert _inside(mid, polys[8])


# ---------------------------------------------------------------------------
# 9: fault injection — the broken fixture trips exactly one check


def test_broken_fixture_fails_exactly_area_preservation():
    p = make_params(2, 0.8)
    rep = run_all(p, SampleSpec("uniform-ball", 10000, 42), maps=stretched_maps())
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == ["area_preservation"]
    rec = {c.name: c for c in rep.checks}["area_preservation"]
    worst_err = rec.tolerance - rec.worst_margin
    assert worst_err == pytest.approx(0.01, abs=1e-4)
