"""Sampling pools, check records, report schema, and fault injection."""

import json
import math
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from relpack import discmap, make_params, phi, verify
from relpack.verify import (
    CURVE_AREA_COUNT,
    DEFAULT_TOLERANCES,
    ROUND_TRIP_LIMIT,
    MapSet,
    SampleSpec,
    check_band_margins,
    check_containment,
    check_curve_areas,
    check_sharpness_identity,
    resolve_threads,
    run_all,
    sample,
)

from _faulty import stretched_maps
from conftest import ball_points


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic(p28):
    for strategy in ("uniform-ball", "boundary-biased", "midline", "diameter-only"):
        a = sample(SampleSpec(strategy, 500, 11), p28)
        b = sample(SampleSpec(strategy, 500, 11), p28)
        assert np.array_equal(a, b)
        c = sample(SampleSpec(strategy, 500, 12), p28)
        assert not np.array_equal(a, c)


def test_all_strategies_stay_inside_ball(p28):
    for strategy in (
        "grid",
        "uniform-ball",
        "boundary-biased",
        "midline",
        "diameter-only",
    ):
        pts = sample(SampleSpec(strategy, 400, 5), p28)
        assert pts.shape[1] == 2 * p28.n
        assert np.all(np.einsum("ij,ij->i", pts, pts) < p28.r**2)


def test_diameter_pool_has_zero_momenta(p28):
    pts = sample(SampleSpec("diameter-only", 300, 9), p28)
    assert np.all(pts[:, 1::2] == 0.0)
    assert np.any(pts[:, 0::2] != 0.0)


def test_boundary_pool_hugs_the_sphere(p28):
    pts = sample(SampleSpec("boundary-biased", 300, 9), p28)
    total = np.einsum("ij,ij->i", pts, pts)
    assert np.all(total > 0.98 * p28.r**2)
    assert np.all(total < p28.r**2)


def test_midline_pool_momenta_small_but_nonzero(p28):
    pts = sample(SampleSpec("midline", 300, 9), p28)
    p = pts[:, 1::2]
    assert np.all(p != 0.0)
    assert np.max(np.abs(p)) <= 1e-3 * p28.r
    assert np.min(np.abs(p)) >= 1e-9 * p28.r * 0.999


def test_uniform_ball_mean_action(p37):
    # for the uniform law on the ball, E[sum u_i] = r^2 * n/(n+1)
    pts = sample(SampleSpec("uniform-ball", 40000, 3), p37)
    total = np.einsum("ij,ij->i", pts, pts)
    nn = p37.n
    mean = p37.r**2 * nn / (nn + 1.0)
    var = p37.r**4 * nn / ((nn + 1.0) ** 2 * (nn + 2.0))
    se = np.sqrt(var / total.size)
    assert abs(total.mean() - mean) < 3.0 * se


def test_unknown_strategy_rejected(p28):
    with pytest.raises(ValueError):
        sample(SampleSpec("hexagonal", 10, 0), p28)
    with pytest.raises(ValueError):
        sample(SampleSpec("uniform-ball", 0, 0), p28)


# ---------------------------------------------------------------------------
# threads


def test_resolve_threads_env(monkeypatch):
    monkeypatch.delenv("RELPACK_THREADS", raising=False)
    cores = min(verify._cores(), 64)
    assert cores >= 1
    assert resolve_threads() == cores
    monkeypatch.setenv("RELPACK_THREADS", "")  # empty means unset
    assert resolve_threads() == cores
    monkeypatch.setenv("RELPACK_THREADS", "4")
    assert resolve_threads() == 4
    assert resolve_threads(2) == 2  # explicit argument wins
    monkeypatch.setenv("RELPACK_THREADS", "1000")
    assert resolve_threads() == 64  # capped
    monkeypatch.setenv("RELPACK_THREADS", "abc")
    with pytest.raises(ValueError, match="RELPACK_THREADS"):
        resolve_threads()


@pytest.mark.parametrize("block", [None, 64])
def test_threads_only_for_pools_of_several_blocks(p28, monkeypatch, block):
    # 100 + 100 rows give 400 factor points: one block, which stays on the
    # calling thread; in 64-row blocks the passes go to the workers
    if block is not None:
        monkeypatch.setattr(discmap, "_BLOCK", block)
    idents = []

    def recording(name):
        fn = getattr(discmap, name)

        def wrapped(a, b, params):
            idents.append(threading.get_ident())
            return fn(a, b, params)

        return wrapped

    run_all(p28, SampleSpec("uniform-ball", 100, 5), threads=4,
            maps=MapSet(**{name: recording(name) for name in
                           ("sigma", "sigma_inv", "sigma_jacobian")}))
    on_main = [i == threading.get_ident() for i in idents]
    assert all(on_main) if block is None else not any(on_main)


def test_threads_do_not_raise_memory(p28):
    # each worker holds one block in flight, so two threads must not cost
    # more than a few blocks' temporaries beyond the one-thread run
    tracemalloc.start()
    try:
        run_all(p28, SampleSpec("uniform-ball", 9000, 21), threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45 * 2**20


def test_threaded_run_is_bit_identical(p28):
    # 9000 + 900 rows give 19800 factor points: five blocks, so the Jacobian
    # and round-trip passes really run on several threads
    spec = SampleSpec("uniform-ball", 9000, 21)
    r1 = run_all(p28, spec, threads=1)
    r4 = run_all(p28, spec, threads=4)
    assert r1.to_json() == r4.to_json()


def test_each_pool_is_mapped_once(p28):
    counts = {"sigma": 0, "sigma_jacobian": 0, "sigma_inv": 0}

    def counting(name):
        fn = getattr(discmap, name)

        def wrapped(a, b, params):
            counts[name] += np.size(a)
            return fn(a, b, params)

        return wrapped

    run_all(p28, SampleSpec("uniform-ball", 2000, 5),
            maps=MapSet(**{name: counting(name) for name in counts}))
    n = p28.n
    main = 2000 + 200  # uniform and boundary-biased rows
    aux = 1000 + 1000  # diameter and midline rows
    # the main pool's images come with its Jacobians, so sigma maps only
    # the auxiliary pools
    assert counts["sigma"] == n * aux
    assert counts["sigma_jacobian"] == n * main
    assert counts["sigma_inv"] == min(ROUND_TRIP_LIMIT, n * main)


# ---------------------------------------------------------------------------
# reports


def test_report_schema_and_determinism(p28):
    spec = SampleSpec("uniform-ball", 2000, 13)
    rep = run_all(p28, spec)
    text = rep.to_json()
    assert text == run_all(p28, spec).to_json()
    doc = json.loads(text)
    assert set(doc) == {"params", "checks", "overall"}
    assert doc["params"] == {
        "n": 2,
        "r": 0.8,
        "epsilon": p28.epsilon,
        "seed": 13,
    }
    names = [c["name"] for c in doc["checks"]]
    assert names == [
        "area_preservation",
        "containment",
        "midline",
        "band_margins",
        "round_trip",
        "curve_areas",
        "chart_symplectic",
        "lagrangian_preimage",
        "sharpness_identity",
    ]
    for c in doc["checks"]:
        assert set(c) == {"name", "passed", "worst_margin", "tolerance", "samples"}
        assert isinstance(c["passed"], bool)
    assert doc["overall"] is True
    # floats survive the round trip exactly (full precision serialization)
    assert doc["params"]["r"] == 0.8
    assert doc["params"]["epsilon"] == p28.epsilon


def test_report_save(tmp_path, p28):
    rep = run_all(p28, SampleSpec("uniform-ball", 1000, 2))
    out = tmp_path / "report.json"
    rep.save(out)
    assert json.loads(out.read_text())["overall"] is True


def test_near_bound_run_passes():
    p = make_params(2, 0.81)
    rep = run_all(p, SampleSpec("uniform-ball", 4000, 7))
    assert rep.overall


@pytest.mark.parametrize("seed", [1, 42])
def test_six_factor_near_bound_run_passes(seed):
    # near A/A_max = 5e-4 the curve corner needs a sinh-warp width of about
    # 1.4e-6; a coarser width fails area_preservation and curve_areas
    rep = run_all(make_params(6, 0.534), SampleSpec("uniform-ball", 500, seed))
    assert rep.overall


def test_unknown_tolerance_name_rejected(p28):
    with pytest.raises(ValueError):
        run_all(p28, SampleSpec("uniform-ball", 100, 0), tolerances={"nope": 1.0})


@pytest.mark.parametrize("name,value", [("round_trip", math.nan),
                                        ("curve_areas", math.inf),
                                        ("containment", -1.0)])
def test_non_finite_or_negative_tolerance_rejected(p28, name, value):
    # a NaN margin is no verdict, and a floor below 0 would pass images
    # outside the open domain
    with pytest.raises(ValueError, match="finite"):
        run_all(p28, SampleSpec("uniform-ball", 100, 0), tolerances={name: value})


def test_checks_run_from_the_table_at_call_time(p28, monkeypatch):
    # run_all looks each check up in the module when it calls it, so a
    # patched verify.check_<name> is the one that runs (the benchmark's
    # tracer times the checks that way)
    calls = []
    for name in DEFAULT_TOLERANCES:
        def recording(ev, tol, name=name, fn=getattr(verify, f"check_{name}")):
            calls.append((name, tol))
            return fn(ev, tol)

        monkeypatch.setattr(verify, f"check_{name}", recording)
    rep = run_all(p28, SampleSpec("uniform-ball", 300, 1),
                  tolerances={"midline": 1e-11})
    assert calls == list({**DEFAULT_TOLERANCES, "midline": 1e-11}.items())
    assert [c.name for c in rep.checks] == list(DEFAULT_TOLERANCES)


def test_tightened_tolerance_fails_cleanly(p28):
    rep = run_all(
        p28,
        SampleSpec("uniform-ball", 1000, 4),
        tolerances={"round_trip": 1e-18},
    )
    assert not rep.overall
    rec = {c.name: c for c in rep.checks}["round_trip"]
    assert not rec.passed and rec.worst_margin < 0.0
    assert rec.tolerance == 1e-18


# ---------------------------------------------------------------------------
# individual checks against the grid pool


def test_grid_area_check(p28):
    # main pool led by a lattice restricted to the first factor
    rep = run_all(p28, SampleSpec("grid", 10000, 0))
    rec = {c.name: c for c in rep.checks}["area_preservation"]
    assert rec.passed
    assert rec.worst_margin > 0.0
    assert rec.tolerance == DEFAULT_TOLERANCES["area_preservation"]


def test_sharpness_record(p28):
    rec = check_sharpness_identity(SimpleNamespace(params=p28),
                                   DEFAULT_TOLERANCES["sharpness_identity"])
    assert rec.passed and rec.name == "sharpness_identity"
    assert rec.tolerance == 1e-15


def test_curve_area_record(p37):
    rec = check_curve_areas(SimpleNamespace(params=p37),
                            DEFAULT_TOLERANCES["curve_areas"])
    assert rec.passed and rec.samples_used == CURVE_AREA_COUNT == 32


def _evaluation_of(pts, params):
    """What the containment and band checks read of an evaluation of ``pts``."""
    return SimpleNamespace(params=params, pool=pts, images=phi(pts, params))


def test_packing_margins_at_origin(p28):
    # the centre maps to (pi/2, c) in each factor: the band keeps the whole
    # collar, and the box, action floor and simplex slacks are pi/2, c, 1 - 2c
    ev = _evaluation_of(np.zeros((1, 4)), p28)
    band, box = check_band_margins(ev, 0.0), check_containment(ev, 0.0)
    assert band.worst_margin == pytest.approx(p28.epsilon, abs=1e-15)
    assert box.worst_margin == pytest.approx(
        min(np.pi / 2.0, p28.c, 1.0 - 2.0 * p28.c), abs=1e-15)
    assert band.worst_point == box.worst_point == (0.0, 0.0, 0.0, 0.0)


def test_packing_margins_positive_on_pool(p28, rng):
    ev = _evaluation_of(ball_points(rng, p28, 2000), p28)
    for rec in (check_band_margins(ev, 0.0), check_containment(ev, 0.0)):
        assert rec.passed and rec.worst_margin > 0.0


# ---------------------------------------------------------------------------
# fault injection


def test_broken_maps_fail_area_only_spotcheck(p28):
    rep = run_all(p28, SampleSpec("uniform-ball", 2000, 17),
                  maps=stretched_maps())
    records = {c.name: c for c in rep.checks}
    bad = records["area_preservation"]
    assert not bad.passed
    # the stretch misses the true determinant by exactly one percent
    assert bad.worst_margin == pytest.approx(
        DEFAULT_TOLERANCES["area_preservation"] - 0.01, abs=1e-6
    )
    # while the self-consistent round trip still closes
    assert records["round_trip"].passed


def test_nan_jacobian_fails_area_check_and_report_parses(p28):
    def jac(q, p, params):
        Q, P, J = discmap.sigma_jacobian(q, p, params)
        J[0, 0, 0] = np.nan  # one entry of the first factor point's J
        return Q, P, J

    maps = MapSet(discmap.sigma, discmap.sigma_inv, jac)
    rep = run_all(p28, SampleSpec("uniform-ball", 500, 3), maps=maps)
    doc = json.loads(rep.to_json())
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["area_preservation"]
    assert math.isnan(failed[0]["worst_margin"])
    assert doc["overall"] is False
