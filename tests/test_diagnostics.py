"""Quote decomposition, arbitrage flags, and outlier scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

import capstrip as cs


def test_violations_at_zero_strike(schedule, quotes):
    report = cs.decompose(schedule, quotes)
    assert report.violations == [4, 24]


def test_no_violations_at_200bp(schedule, quotes_k200):
    report = cs.decompose(schedule, quotes_k200)
    assert report.violations == []
    assert np.min(report.dTV_bp) >= -1e-9


def test_time_value_identity(schedule, quotes):
    report = cs.decompose(schedule, quotes)
    np.testing.assert_allclose(
        report.time_value_bp, report.cap_price_bp - report.intrinsic_bp, atol=1e-12
    )
    np.testing.assert_allclose(np.cumsum(report.dP_bp), report.cap_price_bp, atol=1e-10)


def test_far_otm_strike_is_pure_time_value(schedule, quotes):
    """At a strike far above every forward the intrinsic vanishes."""
    quotes_high = cs.CapQuoteSet(quotes.maturities_months, quotes.flat_vols, strike=0.10)
    report = cs.decompose(schedule, quotes_high)
    assert np.max(np.abs(report.intrinsic_bp)) == 0.0
    np.testing.assert_allclose(report.time_value_bp, report.cap_price_bp, rtol=0, atol=0)


def test_outlier_scores_on_fixture(quotes):
    report = cs.detect_outliers(quotes, window=5, threshold=3.0)
    assert report.flagged == [3, 24]
    months = list(quotes.maturities_months)
    assert report.scores[months.index(3)] == pytest.approx(3.50, abs=0.01)
    assert report.scores[months.index(24)] == pytest.approx(-7.12, abs=0.01)
    assert not report.degenerate


def test_remove_outliers_drops_flagged(quotes):
    cleaned, report = cs.remove_outliers(quotes)
    assert report.flagged == [3, 24]
    assert len(cleaned) == len(quotes) - 2
    assert 3 not in cleaned.maturities_months
    assert 24 not in cleaned.maturities_months


def test_scores_invariant_under_affine_rescaling(quotes):
    base = cs.detect_outliers(quotes)
    scaled = cs.CapQuoteSet(
        quotes.maturities_months, 2.5 * quotes.flat_vols + 10e-4, quotes.strike
    )
    rescored = cs.detect_outliers(scaled)
    assert rescored.flagged == base.flagged
    np.testing.assert_allclose(rescored.scores, base.scores, atol=1e-9)


def test_constant_vols_are_degenerate():
    flat = cs.CapQuoteSet([2, 3, 4, 5, 6], np.full(5, 80e-4))
    report = cs.detect_outliers(flat)
    assert report.degenerate
    assert report.flagged == []


def _looped_outlier_scores(vols, window, threshold, months):
    """detect_outliers' scores, flags and degeneracy, one np.median per quote."""
    half, n = window // 2, len(vols)
    residual = np.empty(n)
    for q in range(n):
        residual[q] = vols[q] - np.median(vols[max(0, q - half) : min(n, q + half + 1)])
    med = np.median(residual)
    mad = np.median(np.abs(residual - med))
    if mad == 0.0:
        return np.zeros(n), [], True
    scores = 0.6745 * (residual - med) / mad
    return scores, [int(m) for m in months[np.abs(scores) > threshold]], False


def test_rolling_median_matches_the_per_quote_loop(quotes):
    """The one-call rolling median scores every ladder as the per-quote loop
    does, to the bit: short ladders (n < window) and one-quote ladders
    included, and ties that collapse the MAD."""
    rng = np.random.default_rng(7)
    ladders = [quotes]
    for _ in range(120):
        n = int(rng.integers(1, 60))
        vols = rng.lognormal(np.log(80.0), 0.3, n)
        if rng.random() < 0.25:
            vols = np.round(vols / 10.0) * 10.0  # ties
        ladders.append(cs.CapQuoteSet(np.arange(2, n + 2), vols * 1e-4))
    degenerate = 0
    for ladder in ladders:
        for window in (1, 3, 5, 7):
            report = cs.detect_outliers(ladder, window=window, threshold=2.0)
            scores, flagged, flat = _looped_outlier_scores(
                ladder.flat_vols, window, 2.0, ladder.maturities_months
            )
            assert report.scores.tobytes() == scores.tobytes()
            assert (report.flagged, report.degenerate) == (flagged, flat)
            degenerate += flat
    assert 0 < degenerate < 4 * len(ladders)


def test_outlier_parameter_validation(quotes):
    with pytest.raises(cs.InputError):
        cs.detect_outliers(quotes, window=4)
    with pytest.raises(cs.InputError):
        cs.detect_outliers(quotes, threshold=0.0)
    with pytest.raises(cs.InputError):
        cs.detect_outliers(quotes, threshold=float("nan"))


def test_cap_price_matches_caplet_sum(schedule, quotes):
    months = 12
    vol = quotes.flat_vols[list(quotes.maturities_months).index(months)]
    n = schedule.caplet_count(months)
    caplets = cs.price_vector(
        schedule.forwards[:n],
        quotes.strike,
        schedule.fixing_times[:n],
        schedule.accruals[:n],
        schedule.discounts[:n],
        np.full(n, vol),
    )
    direct = cs.cap_price_from_flat_vol(schedule, months, vol, quotes.strike)
    assert direct == pytest.approx(float(np.sum(caplets)), rel=1e-15)


def test_quote_set_validation():
    with pytest.raises(cs.InputError):
        cs.CapQuoteSet([3, 2], [0.01, 0.01])
    with pytest.raises(cs.InputError):
        cs.CapQuoteSet([1, 2], [0.01, 0.01])
    with pytest.raises(cs.InputError):
        cs.CapQuoteSet([2, 3], [0.01])
    for bad in (float("nan"), float("inf"), -0.0005):
        with pytest.raises(cs.InputError):
            cs.CapQuoteSet([2, 3], [0.01, bad])
    with pytest.raises(cs.InputError):
        cs.CapQuoteSet([2, 3], [0.01, 0.01], strike=float("nan"))


def _per_quote_prices(schedule, quotes):
    return np.array(
        [
            cs.cap_price_from_flat_vol(schedule, m, v, quotes.strike)
            for m, v in zip(quotes.maturities_months, quotes.flat_vols)
        ]
    )


def test_cap_prices_match_the_per_quote_loop(schedule, quotes, forward_curve, discount_curve):
    """One pricing call for the whole ladder gives each cap's price to the bit."""
    assert np.array_equal(cs.cap_prices(schedule, quotes), _per_quote_prices(schedule, quotes))
    quarterly = cs.build_schedule(forward_curve, discount_curve, 180, tenor_months=3)
    months = np.array([6, 9, 12, 24, 36, 60, 84, 120, 180])
    vols = np.linspace(60.0, 95.0, len(months)) * 1e-4
    ladder = cs.CapQuoteSet(months, vols, strike=-0.005)
    prices = cs.cap_prices(quarterly, ladder)
    assert np.all(prices > 0.0)
    assert np.array_equal(prices, _per_quote_prices(quarterly, ladder))


# a quote: its time value's change from the previous quote (falls included)
# and its price, both in bp
_INCREMENTS_AND_PRICES = st.lists(
    st.tuples(st.floats(-20.0, 40.0), st.floats(1.0, 500.0)), min_size=1, max_size=30
)


@given(_INCREMENTS_AND_PRICES)
@settings(max_examples=60, deadline=None)
def test_isotonic_floor_is_the_best_non_negative_increments(quotes):
    """The floor against an independent oracle: bounded least squares on
    non-negative cumulative increments, each miss relative to its price."""
    increments_bp, prices_bp = (np.array(column) for column in zip(*quotes))
    time_values, prices = np.cumsum(increments_bp) * 1e-4, prices_bp * 1e-4
    cumulative = np.tril(np.ones((len(prices), len(prices))))
    oracle = lsq_linear(
        cumulative / prices[:, None], time_values / prices, bounds=(0.0, np.inf),
        method="bvls", tol=1e-14,
    )
    floor = cs.isotonic_floor(time_values, prices)
    assert floor == pytest.approx(2.0 * oracle.cost, rel=1e-10, abs=1e-24)
    if np.all(np.diff(time_values, prepend=0.0) >= 0.0):
        assert floor == 0.0
