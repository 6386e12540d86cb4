"""Quote decomposition, arbitrage flags, and outlier scores."""

import warnings
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capstrip as cs
from curve_oracles import cap_price_from_flat_vol


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
    report = cs.detect_outliers(quotes)
    cleaned = quotes.drop(report.flagged)
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
    direct = cs.cap_prices(schedule, cs.CapQuoteSet([months], [vol], quotes.strike))[0]
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
            cap_price_from_flat_vol(schedule, m, v, quotes.strike)
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


def _exact_floor(time_values, prices):
    """The arbitrage floor in exact rational arithmetic, by the min-max
    formula of isotonic regression (Barlow et al., 1972): the best
    non-decreasing fit at quote k, weights 1 / P^2, is the largest over
    i <= k of the least over j >= k of the weighted mean of quotes i..j.
    Clipped at zero, it is the best non-negative fit."""
    values = [Fraction(v) for v in time_values]
    weights = [1 / Fraction(p) ** 2 for p in prices]
    total_weight = [0, *accumulate(weights)]
    total = [0, *accumulate(w * v for w, v in zip(weights, values))]
    n = len(values)

    def least_means(i):
        """[the least weighted mean of quotes i..j over j >= k, for k = i..n-1]"""
        ends = range(i + 1, n + 1)
        means = [(total[j] - total[i]) / (total_weight[j] - total_weight[i]) for j in ends]
        return list(accumulate(reversed(means), min))[::-1]

    least = [least_means(i) for i in range(n)]
    fit = [max(0, *(least[i][k - i] for i in range(k + 1))) for k in range(n)]
    return sum(w * (f - v) ** 2 for w, f, v in zip(weights, fit, values))


@given(_INCREMENTS_AND_PRICES)
@example([(3.0, 1.0), (13.0, 1.0), (1.0, 3.0), (-6.103515625e-05, 1.0)])
@settings(max_examples=60, deadline=None)
def test_isotonic_floor_is_the_best_non_negative_increments(quotes):
    """The floor against an independent oracle in exact arithmetic: the
    cost of the best non-negative, non-decreasing time values, each miss
    relative to its price."""
    increments_bp, prices_bp = (np.array(column) for column in zip(*quotes))
    time_values, prices = np.cumsum(increments_bp) * 1e-4, prices_bp * 1e-4
    floor = cs.isotonic_floor(time_values, prices)
    oracle = float(_exact_floor(time_values, prices))
    assert floor == pytest.approx(oracle, rel=1e-10, abs=1e-24)
    if np.all(np.diff(time_values, prepend=0.0) >= 0.0):
        assert floor == 0.0


def test_isotonic_floor_weighs_prices_whose_square_underflows(forward_curve, discount_curve):
    """At a 1500 bp strike a quarterly ladder's 24M and 27M caps price at
    7.5e-233 and 1.3e-237, so 1 / P^2 overflows, and its 48M and 60M caps
    weigh nothing beside them. The 27M quote falls, and pools with the 24M
    one; the floor is the exact one, with no warning. Without the 27M quote
    the ladder has no arbitrage, and its floor is 0."""
    schedule = cs.build_schedule(forward_curve, discount_curve, 60, tenor_months=3)
    months, vols_bp = np.array([24, 27, 36, 48, 60]), np.array([30.0, 28, 35, 40, 45])

    def floor(keep):
        quotes = cs.CapQuoteSet(months[keep], vols_bp[keep] * 1e-4, 0.15)
        prices = cs.cap_prices(schedule, quotes)  # all time value, far out of the money
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cs.isotonic_floor(prices, prices), prices

    pooled, prices = floor(slice(None))
    exact = float(_exact_floor(prices, prices))
    assert 0.99 < exact < 1.0
    assert pooled == pytest.approx(exact, rel=1e-10)
    assert floor([0, 2, 3, 4])[0] == 0.0
