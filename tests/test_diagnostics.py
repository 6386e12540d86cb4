"""Quote decomposition, arbitrage flags, and outlier scores."""

import numpy as np
import pytest

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
