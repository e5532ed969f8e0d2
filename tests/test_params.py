"""Parameter validation and the exact area-budget identity."""

import math

import pytest
from hypothesis import given, strategies as st

from relpack import (
    InvalidEpsilon,
    RadiusAtOrAboveBound,
    make_params,
    max_epsilon,
)


def test_defaults_n2_r08():
    p = make_params(2, 0.8)
    assert p.n == 2
    assert p.c == pytest.approx(1.0 / 3.0, abs=0.0)
    # default collar saturates the budget: (1/3 - 0.32)/2 == 1/150
    assert abs(p.epsilon - 1.0 / 150.0) < 1e-16
    assert p.area_max == pytest.approx(math.pi * 0.64, abs=1e-15)


def test_max_epsilon_values():
    assert abs(max_epsilon(3, 0.7) - 0.005 / 3.0) < 5e-17
    # squeeze the radius against the bound: the collar shrinks like the gap
    r = math.sqrt(2.0 / 3.0 - 1e-9)
    assert max_epsilon(2, r) == pytest.approx(2.5e-10, rel=1e-6)


@pytest.mark.parametrize("n,r", [(2, 0.8), (2, 0.81), (3, 0.70), (4, 0.60)])
def test_budget_identity_saturates(n, r):
    p = make_params(n, r)
    ident = p.n * p.c + p.r**2 / 2.0 + p.n * p.epsilon
    assert abs(ident - 1.0) <= 1e-15
    assert abs(1.0 - p.n * p.c - p.r**2 / 2.0 - p.n * p.epsilon) <= 1e-15


def test_budget_slack_positive_for_small_collar():
    p = make_params(2, 0.8, epsilon=1e-3)
    assert 1.0 - p.n * p.c - p.r**2 / 2.0 - p.n * p.epsilon > 0.0


def test_radius_rejected_at_and_above_bound():
    with pytest.raises(RadiusAtOrAboveBound):
        make_params(2, math.sqrt(2.0 / 3.0))
    with pytest.raises(RadiusAtOrAboveBound) as exc:
        make_params(2, 0.8165)
    assert "2/(n+1)" in str(exc.value)
    with pytest.raises(RadiusAtOrAboveBound):
        make_params(1, 1.0)  # bound for one factor is r**2 < 1
    # RadiusAtOrAboveBound is also a ValueError, for generic callers
    with pytest.raises(ValueError):
        make_params(4, 0.7)


def test_radius_must_be_finite_positive():
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            make_params(2, bad)


def test_n_must_be_integer_at_least_one():
    for bad in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            make_params(bad, 0.5)


def test_epsilon_bounds():
    top = max_epsilon(2, 0.8)
    p = make_params(2, 0.8, epsilon=top)  # equality is allowed
    assert p.epsilon == top
    with pytest.raises(InvalidEpsilon):
        make_params(2, 0.8, epsilon=top * (1.0 + 1e-12))
    with pytest.raises(InvalidEpsilon):
        make_params(2, 0.8, epsilon=0.0)
    with pytest.raises(InvalidEpsilon):
        make_params(2, 0.8, epsilon=-1e-3)
    with pytest.raises(InvalidEpsilon):
        make_params(2, 0.8, epsilon=math.nan)


@given(
    n=st.integers(min_value=1, max_value=6),
    frac=st.floats(min_value=1e-3, max_value=0.999999),
)
def test_identity_holds_across_admissible_radii(n, frac):
    r = math.sqrt(frac * 2.0 / (n + 1))
    p = make_params(n, r)
    assert 0.0 < p.epsilon <= p.c / n
    assert abs(p.n * p.c + p.r**2 / 2.0 + p.n * p.epsilon - 1.0) <= 1e-15
