"""Normal-model caplet pricing, Greeks, and implied vol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capstrip as cs
from capstrip.bachelier import implied_vol_vector

SQRT_2PI = math.sqrt(2.0 * math.pi)


def make_inputs(forward=0.02, strike=0.02, expiry=1.0, discount=0.97):
    return cs.CapletQuoteInputs(
        forward=forward, strike=strike, expiry=expiry, accrual=1.0 / 12.0, discount=discount
    )


def test_zero_vol_is_intrinsic():
    itm = make_inputs(forward=0.025, strike=0.01)
    assert cs.price(itm, 0.0) == itm.discount * itm.accrual * (itm.forward - itm.strike)
    otm = make_inputs(forward=0.01, strike=0.025)
    assert cs.price(otm, 0.0) == 0.0


def test_atm_closed_form():
    inputs = make_inputs(forward=0.015, strike=0.015, expiry=2.0)
    vol = 0.0075
    expected = inputs.discount * inputs.accrual * vol * math.sqrt(inputs.expiry) / SQRT_2PI
    assert cs.price(inputs, vol) == pytest.approx(expected, rel=1e-14)
    assert cs.implied_vol(inputs, expected) == pytest.approx(vol, rel=1e-12)


def test_put_call_parity_grid():
    """Call minus put is the discounted forward premium; the put is the
    strike/forward-reflected call."""
    moneyness = np.linspace(-0.05, 0.05, 21)
    vols = [1e-4, 0.004, 0.025, 0.05]
    expiries = [1.0 / 12.0, 1.0, 7.5, 15.0]
    worst = 0.0
    for m in moneyness:
        for vol in vols:
            for t in expiries:
                call_in = make_inputs(forward=0.02 + m, strike=0.02, expiry=t)
                put_in = make_inputs(forward=0.02, strike=0.02 + m, expiry=t)
                lhs = cs.price(call_in, vol) - cs.price(put_in, vol)
                rhs = call_in.discount * call_in.accrual * m
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-14


def test_price_monotone_in_vol():
    inputs = make_inputs(forward=0.018, strike=0.022)
    vols = np.linspace(1e-4, 0.06, 80)
    prices = np.array([cs.price(inputs, v) for v in vols])
    assert np.all(np.diff(prices) > 0.0)


def test_vega_matches_central_differences():
    h = 1e-7
    for forward, strike, t in [(0.02, 0.02, 1.0), (0.025, 0.01, 0.5), (0.01, 0.02, 10.0)]:
        inputs = make_inputs(forward=forward, strike=strike, expiry=t)
        for vol in (0.003, 0.01, 0.04):
            fd = (cs.price(inputs, vol + h) - cs.price(inputs, vol - h)) / (2.0 * h)
            assert cs.vega(inputs, vol) == pytest.approx(fd, rel=1e-6)


@given(
    moneyness_bp=st.floats(min_value=-500.0, max_value=500.0),
    vol_bp=st.floats(min_value=1.0, max_value=500.0),
    expiry=st.floats(min_value=1.0 / 12.0, max_value=15.0),
)
@settings(max_examples=300, deadline=None)
def test_implied_vol_round_trip(moneyness_bp, vol_bp, expiry):
    vol = vol_bp * 1e-4
    inputs = make_inputs(forward=0.02 + moneyness_bp * 1e-4, strike=0.02, expiry=expiry)
    p_lo = cs.price(inputs, vol * (1.0 - 2.5e-12))
    p_hi = cs.price(inputs, vol * (1.0 + 2.5e-12))
    if p_hi - p_lo < 8.0 * math.ulp(p_hi):
        # the float64 price must resolve vol shifts well inside the
        # asserted tolerance (not just evaluation jitter); deep in the
        # money vega decays against the intrinsic value and no solver
        # can recover the vol to 1e-10
        return
    target = cs.price(inputs, vol)
    assert cs.implied_vol(inputs, target) == pytest.approx(vol, rel=1e-10)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-500.0, max_value=500.0),
            st.floats(min_value=1.0, max_value=500.0),
            st.floats(min_value=1.0 / 12.0, max_value=15.0),
        ),
        min_size=1,
        max_size=64,
    )
)
@settings(max_examples=100, deadline=None)
def test_implied_vol_vector_round_trip(draws):
    moneyness_bp, vol_bp, expiries = (np.array(column) for column in zip(*draws))
    # two more elements: one priced at intrinsic, one at the money
    forwards = np.append(0.02 + moneyness_bp * 1e-4, [0.025, 0.02])
    expiries = np.append(expiries, [1.0, expiries[0]])
    vols = np.append(vol_bp * 1e-4, [0.0, vol_bp[0] * 1e-4])
    accruals = np.full(len(vols), 1.0 / 12.0)
    discounts = np.full(len(vols), 0.97)

    def prices(scale):
        return cs.price_vector(forwards, 0.02, expiries, accruals, discounts, vols * scale)

    targets = prices(1.0)
    # the same float-resolution skip as the scalar round trip
    p_lo, p_hi = prices(1.0 - 2.5e-12), prices(1.0 + 2.5e-12)
    resolved = p_hi - p_lo >= 8.0 * np.spacing(p_hi)
    resolved[-2:] = False
    recovered = implied_vol_vector(forwards, 0.02, expiries, accruals, discounts, targets)
    np.testing.assert_allclose(recovered[resolved], vols[resolved], rtol=1e-10, atol=0)
    assert recovered[-2] == 0.0
    closed_form = targets[-1] * SQRT_2PI / (discounts[-1] * accruals[-1] * math.sqrt(expiries[-1]))
    assert recovered[-1] == closed_form

    below = np.append(targets, 0.97 / 12.0 * 0.01 - 1e-6)
    with pytest.raises(cs.NegativeTimeValueError):
        implied_vol_vector(
            np.append(forwards, 0.03), 0.02, np.append(expiries, 1.0),
            np.append(accruals, 1.0 / 12.0), np.append(discounts, 0.97), below,
        )


@given(
    moneyness_bp=st.floats(min_value=-400.0, max_value=400.0),
    vol_bp=st.floats(min_value=0.0, max_value=300.0),
)
@settings(max_examples=200, deadline=None)
def test_time_value_non_negative(moneyness_bp, vol_bp):
    inputs = make_inputs(forward=0.02 + moneyness_bp * 1e-4, strike=0.02, expiry=3.0)
    assert cs.time_value(inputs, vol_bp * 1e-4) >= 0.0


def test_intrinsic_target_gives_zero_vol():
    inputs = make_inputs(forward=0.025, strike=0.015)
    intrinsic = cs.price(inputs, 0.0)
    assert cs.implied_vol(inputs, intrinsic) == 0.0


def test_below_intrinsic_raises_with_deficit():
    inputs = make_inputs(forward=0.025, strike=0.015)
    intrinsic = cs.price(inputs, 0.0)
    with pytest.raises(cs.NegativeTimeValueError) as err:
        cs.implied_vol(inputs, intrinsic - 1e-6)
    assert err.value.deficit == pytest.approx(1e-6, rel=1e-6)


def test_price_vector_clamps_negative_vols():
    forwards = np.array([0.02, 0.015])
    expiries = np.array([0.5, 1.0])
    accruals = np.full(2, 1.0 / 12.0)
    discounts = np.array([0.99, 0.98])
    vols = np.array([-0.01, 0.008])
    clamped = cs.price_vector(forwards, 0.018, expiries, accruals, discounts, vols, clamp=True)
    at_zero = cs.price_vector(
        forwards, 0.018, expiries, accruals, discounts, np.array([0.0, 0.008]), clamp=False
    )
    np.testing.assert_array_equal(clamped, at_zero)


def test_intrinsic_vector_matches_scalar():
    forwards = np.array([0.025, 0.01])
    accruals = np.full(2, 1.0 / 12.0)
    discounts = np.array([0.99, 0.98])
    expected = discounts * accruals * np.maximum(forwards - 0.018, 0.0)
    np.testing.assert_allclose(
        cs.intrinsic_vector(forwards, 0.018, accruals, discounts), expected, rtol=0, atol=0
    )


def test_vega_vector_matches_the_closed_form():
    """vega = accrual * discount * sqrt(T) * phi(d) with d = (F - K) / (vol sqrt(T));
    at zero vol the one-sided limit, phi(0) at the money and zero elsewhere."""
    strike = 0.018
    forwards = np.array([0.025, 0.018, 0.01, 0.018, 0.03])
    expiries = np.array([0.5, 1.0, 2.0, 3.0, 0.25])
    accruals = np.full(5, 1.0 / 12.0)
    discounts = np.array([0.99, 0.98, 0.97, 0.96, 0.995])
    vols = np.array([0.008, 0.0, 0.0, 0.012, 1e-9])
    expected = []
    for f, t, a, b, v in zip(forwards, expiries, accruals, discounts, vols):
        if v > 0.0:
            d = (f - strike) / (v * math.sqrt(t))
        else:
            d = 0.0 if f == strike else math.inf
        expected.append(a * b * math.sqrt(t) * math.exp(-0.5 * d * d) / SQRT_2PI)
    vector = cs.vega_vector(forwards, strike, expiries, accruals, discounts, vols)
    np.testing.assert_allclose(vector, expected, rtol=1e-14, atol=0)
