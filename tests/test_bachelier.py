"""Normal-model caplet pricing, Greeks, and implied vol."""

import math

import numpy as np
import pytest
from curve_oracles import intrinsic_vector
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


def _table(inputs):
    """The one-caplet CapletTable of these terms."""
    forward, expiry, accrual, discount = (
        np.array([x]) for x in (inputs.forward, inputs.expiry, inputs.accrual, inputs.discount)
    )
    return cs.bachelier.CapletTable(forward, inputs.strike, expiry, accrual, discount)


def test_vega_matches_central_differences():
    h = 1e-7
    for forward, strike, t in [(0.02, 0.02, 1.0), (0.025, 0.01, 0.5), (0.01, 0.02, 10.0)]:
        inputs = make_inputs(forward=forward, strike=strike, expiry=t)
        for vol in (0.003, 0.01, 0.04):
            fd = (cs.price(inputs, vol + h) - cs.price(inputs, vol - h)) / (2.0 * h)
            vega = _table(inputs).price_vega(np.array([vol]))[1][0]
            assert vega == pytest.approx(fd, rel=1e-6)


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


def test_implied_vol_past_the_square_root_of_the_float_range():
    """Vols whose bracket product overflows invert all the same: the
    bracket's geometric mean is taken root by root there."""
    forwards = np.array([0.025, 0.015, 0.025])
    vols = np.array([1e200, 1e300, 0.01])
    expiries, accruals, discounts = np.ones(3), np.full(3, 0.25), np.full(3, 0.97)
    targets = cs.price_vector(forwards, 0.02, expiries, accruals, discounts, vols)
    recovered = implied_vol_vector(forwards, 0.02, expiries, accruals, discounts, targets)
    np.testing.assert_allclose(recovered, vols, rtol=1e-12)


@given(
    moneyness_bp=st.floats(min_value=-400.0, max_value=400.0),
    vol_bp=st.floats(min_value=0.0, max_value=300.0),
)
@settings(max_examples=200, deadline=None)
def test_time_value_non_negative(moneyness_bp, vol_bp):
    """No caplet prices below its intrinsic value, with no floor against round-off."""
    inputs = make_inputs(forward=0.02 + moneyness_bp * 1e-4, strike=0.02, expiry=3.0)
    table = _table(inputs)
    assert table.price(np.array([vol_bp * 1e-4]))[0] - table.intrinsic[0] >= 0.0


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


def test_negative_vols_price_as_zero_vol():
    # in and out of the money, at the money (F == K), and one positive vol
    forwards = np.array([0.02, 0.015, 0.018, 0.025, 0.01])
    expiries = np.array([0.5, 1.0, 2.0, 0.25, 3.0])
    accruals = np.full(5, 1.0 / 12.0)
    discounts = np.array([0.99, 0.98, 0.96, 0.995, 0.94])
    vols = np.array([-0.01, -0.0, -5e-324, -np.inf, 0.008])
    negative = cs.price_vector(forwards, 0.018, expiries, accruals, discounts, vols)
    at_zero = cs.price_vector(
        forwards, 0.018, expiries, accruals, discounts, np.array([0.0, 0.0, 0.0, 0.0, 0.008])
    )
    assert negative.tobytes() == at_zero.tobytes()


def test_intrinsic_vector_matches_scalar():
    forwards = np.array([0.025, 0.01])
    accruals = np.full(2, 1.0 / 12.0)
    discounts = np.array([0.99, 0.98])
    expected = discounts * accruals * np.maximum(forwards - 0.018, 0.0)
    np.testing.assert_allclose(
        intrinsic_vector(forwards, 0.018, accruals, discounts), expected, rtol=0, atol=0
    )


def test_price_vega_matches_the_closed_form():
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
    table = cs.bachelier.CapletTable(forwards, strike, expiries, accruals, discounts)
    np.testing.assert_allclose(table.price_vega(vols)[1], expected, rtol=1e-14, atol=0)


def _vegas(terms, vols):
    return cs.bachelier.CapletTable(*terms).price_vega(vols)[1]


def _greeks_match_price_and_vega(terms, vols):
    """CapletTable.price_greeks's prices are price_vector's and its vegas
    price_vega's, to the bit."""
    prices, vegas, vommas = cs.bachelier.CapletTable(*terms).price_greeks(vols)
    np.testing.assert_array_equal(prices, cs.price_vector(*terms, vols))
    np.testing.assert_array_equal(vegas, _vegas(terms, vols))
    assert np.all(np.isfinite(vommas))
    return vegas, vommas


def test_table_price_greeks_matches_price_vega_and_differences():
    strike = 0.018
    forwards = np.array([0.025, 0.018, 0.01, 0.018, 0.03, 0.005])
    expiries = np.array([0.5, 1.0, 2.0, 3.0, 0.25, 1.5])
    accruals = np.full(6, 1.0 / 12.0)
    discounts = np.array([0.99, 0.98, 0.97, 0.96, 0.995, 0.985])
    terms = (forwards, strike, expiries, accruals, discounts)
    with_zeros = np.array([0.008, 0.0, 0.0, 0.012, 0.004, 0.006])
    all_positive = np.array([0.008, 0.003, 0.011, 0.012, 0.004, 0.006])
    h = 1e-7
    for vols in (with_zeros, all_positive):
        _, vommas = _greeks_match_price_and_vega(terms, vols)
        # zero vol: the one-sided limit, flat vega away from the money, linear price at it
        assert np.all(vommas[vols == 0.0] == 0.0)
        live = vols > 0.0
        fd = (_vegas(terms, vols + h) - _vegas(terms, vols - h)) / (2.0 * h)
        np.testing.assert_allclose(vommas[live], fd[live], rtol=1e-6)

    # far tails: q = |F - K| / s beyond 38, where exp(-q^2/2) underflows, and
    # q at its 1e9 cap, reached at a tiny s and by overflow at a subnormal s
    moneyness = np.array([-0.013, 0.012, -0.013, 0.012, -0.013, 0.012, -0.013, 0.012, 0.0])
    q = np.array([37.5, 38.5, 40.0, 130.0, 1.3e10, 1.2e10])
    vols = np.concatenate((np.abs(moneyness[:6]) / q, [1e-310, 1e-310, 1e-310]))
    assert np.all(vols[6:] < np.finfo(float).tiny)
    n = len(vols)
    terms = (strike + moneyness, strike, np.ones(n), np.full(n, 0.25), np.full(n, 0.97))
    vegas, vommas = _greeks_match_price_and_vega(terms, vols)
    prices = cs.price_vector(*terms, vols)
    intrinsic = intrinsic_vector(strike + moneyness, strike, terms[3], terms[4])
    assert prices[0] > 0.0  # out of the money, a subnormal time value is left at q = 37.5
    np.testing.assert_array_equal(prices[2:8], intrinsic[2:8])
    assert np.all(vegas[2:8] == 0.0) and np.all(vommas[2:] == 0.0)
    assert vegas[8] > 0.0  # at the money the vega keeps its zero-vol limit


def test_caplet_table_rows_price_as_their_own_table():
    """A table sliced to some caplets prices them as a table built from
    their terms, to the bit; its intrinsic is intrinsic_vector's."""
    rng = np.random.default_rng(3)
    n = 200
    strike = 0.018
    forwards = np.where(np.arange(n) % 7 == 0, strike, rng.uniform(-0.01, 0.05, n))
    expiries = rng.uniform(1.0 / 12.0, 30.0, n)
    accruals = np.full(n, 1.0 / 12.0)
    discounts = rng.uniform(0.5, 1.0, n)
    vols = np.where(np.arange(n) % 5 == 0, 0.0, rng.uniform(0.0, 0.03, n))
    table = cs.bachelier.CapletTable(forwards, strike, expiries, accruals, discounts)
    for rows in (slice(None), slice(17, 140), rng.random(n) < 0.4, np.arange(n)[::-3]):
        terms = (forwards[rows], strike, expiries[rows], accruals[rows], discounts[rows])
        part = table[rows]
        np.testing.assert_array_equal(part.price(vols[rows]), cs.price_vector(*terms, vols[rows]))
        prices, vegas = part.price_vega(vols[rows])
        greeks = cs.bachelier.CapletTable(*terms).price_greeks(vols[rows])
        np.testing.assert_array_equal(prices, greeks[0])
        np.testing.assert_array_equal(vegas, greeks[1])
        for got, want in zip(part.price_greeks(vols[rows]), greeks):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            part.intrinsic, intrinsic_vector(terms[0], strike, terms[3], terms[4])
        )


def _kernel_outputs(table, name, vols):
    outputs = getattr(table, name)(vols)
    return outputs if isinstance(outputs, tuple) else (outputs,)


def test_lean_and_masked_kernel_paths_agree_to_the_bit():
    """Vols whose s = vol * sqrt(t) are all positive normal floats take the
    kernels' lean path, without masks; one zero vol among them takes the
    masked path. Both give the same bits, and a subnormal s warns of nothing."""
    rng = np.random.default_rng(7)
    strike = 0.02
    # at the money, deep in the money, far out of the money, then a spread;
    # the last caplet is the zero-vol one that forces the masked path
    moneyness = np.concatenate(
        ([0.0, 0.0, 0.04, 0.06, -0.05, -0.018], rng.uniform(-0.02, 0.03, 40), [0.01])
    )
    n = len(moneyness) - 1
    forwards = strike + moneyness
    expiries = rng.uniform(1.0 / 12.0, 30.0, n + 1)
    accruals = np.full(n + 1, 1.0 / 12.0)
    discounts = rng.uniform(0.5, 1.0, n + 1)
    padded = cs.bachelier.CapletTable(forwards, strike, expiries, accruals, discounts)
    table = cs.bachelier.CapletTable(
        forwards[:n], strike, expiries[:n], accruals[:n], discounts[:n]
    )
    # 1e-300 is normal; far from the money it sends q to its cap
    vols = np.concatenate(([0.004, 1e-300, 1e-300], rng.uniform(1e-5, 0.03, n - 3)))
    padded_vols = np.append(vols, 0.0)
    assert table._gaussian(vols * table.root_t)[0] is None
    assert padded._gaussian(padded_vols * padded.root_t)[0] is not None
    for name in ("price", "price_vega", "price_greeks"):
        lean = _kernel_outputs(table, name, vols)
        masked = _kernel_outputs(padded, name, padded_vols)
        for got, want in zip(lean, masked, strict=True):
            np.testing.assert_array_equal(got, want[:n])

    subnormal = vols.copy()
    subnormal[[1, 2, 4]] = 1e-310  # at, in and out of the money
    assert table._gaussian(subnormal * table.root_t)[0] is not None
    for name in ("price", "price_vega", "price_greeks"):
        for outputs in _kernel_outputs(table, name, subnormal):
            assert np.all(np.isfinite(outputs))
