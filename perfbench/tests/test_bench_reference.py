"""The reference computations against closed forms and hand-solved cases."""

import math

import numpy as np
import pytest

import reference


def flat_grid(rate=0.02, months=120, tenor=1):
    pillars = np.array([0.0, 600.0])
    curve = (pillars, np.full(2, rate))
    return reference.build_grid(curve, curve, months, tenor)


def test_atm_price_closed_form():
    # B * delta * sigma * sqrt(t) / sqrt(2 pi)
    price = reference.caplet_prices(0.03, 0.03, 2.0, 0.25, 0.95, 0.008)
    assert price == pytest.approx(0.95 * 0.25 * 0.008 * math.sqrt(2.0) / math.sqrt(2 * math.pi), rel=1e-15)


@pytest.mark.parametrize("forward", [-0.01, 0.0, 0.012, 0.05])
@pytest.mark.parametrize("strike", [-0.005, 0.01, 0.04])
def test_put_call_parity(forward, strike):
    # a floorlet on F at K is a caplet on -F at -K under the normal model
    args = (3.0, 0.5, 0.9, 0.007)
    call = reference.caplet_prices(forward, strike, *args)
    put = reference.caplet_prices(-forward, -strike, *args)
    assert call - put == pytest.approx(0.9 * 0.5 * (forward - strike), abs=1e-17)


def test_zero_vol_prices_at_intrinsic():
    prices = reference.caplet_prices(np.array([0.01, 0.03]), 0.02, 1.0, 0.5, 0.9, 0.0)
    assert prices.tolist() == pytest.approx([0.0, 0.9 * 0.5 * 0.01], rel=1e-15)


def test_flat_curve_grid():
    grid = flat_grid(rate=0.02, months=24, tenor=3)
    tau = 0.25
    assert grid.fixing_times.tolist() == pytest.approx([0.25 * k for k in range(1, 8)])
    assert np.allclose(grid.forwards, (math.exp(0.02 * tau) - 1) / tau, rtol=1e-13)
    assert np.allclose(grid.discounts, np.exp(-0.02 * (grid.fixing_times + tau)), rtol=1e-15)
    assert grid.count(24) == 7


@pytest.mark.parametrize("strike", [-0.005, 0.02, 0.04])
def test_flat_vol_round_trip(strike):
    grid = flat_grid()
    price = reference.flat_cap_price(grid, strike, 119, 0.0085)
    assert reference.flat_vol(grid, strike, 119, price) == pytest.approx(0.0085, rel=1e-12)


def test_flat_vol_rejects_a_target_at_intrinsic():
    grid = flat_grid()
    with pytest.raises(ValueError):
        reference.flat_vol(grid, 0.0, 12, reference.flat_cap_price(grid, 0.0, 12, 0.0))


@pytest.mark.parametrize(
    "values, weights, fit",
    [
        ([1.0, 3.0, 2.0], [1.0, 1.0, 1.0], [1.0, 2.5, 2.5]),
        ([3.0, 1.0], [1.0, 3.0], [1.5, 1.5]),
        ([4.0, 3.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0], [2.5, 2.5, 2.5, 2.5]),
        ([1.0, 2.0, 5.0], [2.0, 1.0, 1.0], [1.0, 2.0, 5.0]),
        ([1.0, 4.0, 2.0, 3.0], [1.0, 1.0, 3.0, 1.0], [1.0, 2.5, 2.5, 3.0]),
    ],
)
def test_isotonic_fit_by_hand(values, weights, fit):
    assert reference.isotonic_fit(values, weights).tolist() == pytest.approx(fit)


def test_isotonic_errors_by_hand():
    # time values fall by 1 between caps priced 1 and 2: the L-infinity
    # bound shares the fall as 1 / (2 + 2); the L2 fit with weights
    # 1/P^2 pools 3 and 2 at (3/4 + 2/4) / (1/4 + 1/4) = 2.5
    tv, prices = [1.0, 3.0, 2.0], [1.0, 2.0, 2.0]
    assert reference.isotonic_linf_bound(tv, prices) == pytest.approx(0.25)
    assert reference.isotonic_worst_error(tv, prices) == pytest.approx(0.25)
    assert reference.isotonic_linf_bound([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert reference.isotonic_worst_error([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_l2_fit_never_beats_the_linf_bound():
    rng = np.random.default_rng(5)
    for _ in range(200):
        tv = np.cumsum(rng.normal(0.5, 1.0, size=8))
        prices = np.abs(tv) + rng.uniform(0.5, 2.0, size=8)
        bound = reference.isotonic_linf_bound(tv, prices)
        assert reference.isotonic_worst_error(tv, prices) >= bound * (1 - 1e-12)
