"""The public surface: every exported name resolves and takes any batch."""

import importlib

import numpy as np
import pytest

import relpack as rp

MODULES = ["relpack", "relpack.chart", "relpack.cli", "relpack.curves",
           "relpack.discmap", "relpack.params", "relpack.verify"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("n, r", [(2, 0.8), (6, 0.534)])
def test_every_public_map_takes_an_empty_batch(n, r):
    # an empty batch gives empty results of the batch's shape, as any other
    # batch size would, and raises nothing
    params = rp.make_params(n, r)
    e, coords = np.empty(0), np.empty((0, 2 * n))
    z = np.empty((0, n), dtype=complex)
    cases = {
        "sigma": (rp.sigma(e, e, params), [(0,), (0,)]),
        "sigma_inv": (rp.sigma_inv(e, e, params), [(0,), (0,)]),
        "sigma_jacobian": (rp.sigma_jacobian(e, e, params),
                           [(0,), (0,), (0, 2, 2)]),
        "level_curve_point": (rp.level_curve_point(e, e, params),
                              [(0,), (0,)]),
        "enclosed_area": ((rp.enclosed_area(e, params),), [(0,)]),
        "shape_schedule": (rp.shape_schedule(e, params), [(0,)] * 3),
        "area_factor": ((rp.area_factor(e),), [(0,)]),
        "phi": ((rp.phi(coords, params),), [(0, 2 * n)]),
        "full_embedding": ((rp.full_embedding(coords, params),), [(0, n)]),
        "chart_j": ((rp.chart_j(coords),), [(0, n)]),
        "chart_j_inv": ((rp.chart_j_inv(z),), [(0, 2 * n)]),
        "moment_map": ((rp.moment_map(z),), [(0, n)]),
        "domain_slack": ((rp.domain_slack(coords),), [(0,)]),
        "clifford_distance": ((rp.clifford_distance(z, params),), [(0,)]),
        "chart_symplectic_check": ((rp.chart_symplectic_check(coords),),
                                   [(0,)]),
    }
    for name, (out, shapes) in cases.items():
        assert [np.shape(v) for v in out] == shapes, name
