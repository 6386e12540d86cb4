"""Zero curves, discount factors, and caplet schedules."""

import numpy as np
import pytest

import capstrip as cs

PILLAR_MONTHS = [1.0, 3.0, 6.0, 12.0, 36.0, 120.0]
PILLAR_RATES = [0.0010, 0.0022, 0.0040, 0.0095, 0.0160, 0.0185]


@pytest.fixture(params=["loglinear", "cubic"])
def small_curve(request):
    return cs.ZeroCurve(PILLAR_MONTHS, PILLAR_RATES, interp=request.param)


def test_pillar_discount_factors_reproduced(small_curve):
    t = np.asarray(PILLAR_MONTHS) / 12.0
    expected = np.exp(-np.asarray(PILLAR_RATES) * t)
    np.testing.assert_allclose(small_curve.discount_factor(t), expected, rtol=1e-14)


def test_loglinear_forward_piecewise_constant():
    curve = cs.ZeroCurve(PILLAR_MONTHS, PILLAR_RATES, interp="loglinear")
    # instantaneous forward inside one pillar interval, probed by short stubs
    starts = np.linspace(6.5 / 12.0, 11.0 / 12.0, 40)
    fwd = curve.forward_rate(starts, starts + 1e-5)
    assert np.max(fwd) - np.min(fwd) < 1e-12


def test_flat_zero_rate_extrapolation(small_curve):
    for t, rate in ((0.001, PILLAR_RATES[0]), (50.0, PILLAR_RATES[-1])):
        assert -small_curve.log_discount(t) / t == pytest.approx(rate, abs=1e-15)


def test_forward_rate_rejects_bad_interval(small_curve):
    with pytest.raises(cs.InputError):
        small_curve.forward_rate(1.0, 1.0)


def test_schedule_grid(schedule, forward_curve, discount_curve):
    """A T-month cap owns caplets fixing at months 1..T-1 on a monthly grid."""
    assert len(schedule) == 179
    np.testing.assert_allclose(schedule.fixing_times, np.arange(1, 180) / 12.0, rtol=0, atol=0)
    np.testing.assert_allclose(schedule.pay_times, np.arange(2, 181) / 12.0, rtol=0, atol=0)
    np.testing.assert_allclose(schedule.accruals, 1.0 / 12.0, rtol=0, atol=0)
    np.testing.assert_allclose(
        schedule.forwards,
        forward_curve.forward_rate(schedule.fixing_times, schedule.pay_times),
        rtol=1e-15,
    )
    np.testing.assert_allclose(
        schedule.discounts, discount_curve.discount_factor(schedule.pay_times), rtol=1e-15
    )


def test_schedule_translation_consistency(forward_curve, discount_curve, schedule):
    short = cs.build_schedule(forward_curve, discount_curve, 24)
    n = len(short)
    assert n == 23
    np.testing.assert_array_equal(short.fixing_times, schedule.fixing_times[:n])
    np.testing.assert_array_equal(short.forwards, schedule.forwards[:n])
    np.testing.assert_array_equal(short.discounts, schedule.discounts[:n])


def test_schedule_horizon_is_bounded(forward_curve, discount_curve):
    longest = cs.build_schedule(forward_curve, discount_curve, 1200, tenor_months=12)
    assert len(longest) == 99
    with pytest.raises(cs.InputError, match="horizon"):
        cs.build_schedule(forward_curve, discount_curve, 1212, tenor_months=12)
    with pytest.raises(cs.InputError, match="horizon"):
        cs.build_schedule(forward_curve, discount_curve, 10**400)


def test_caplet_count(schedule):
    assert schedule.caplet_count(2) == 1
    assert schedule.caplet_count(12) == 11
    assert schedule.caplet_count(180) == 179


def test_curve_validation_errors():
    with pytest.raises(cs.InputError):
        cs.ZeroCurve([1.0], [0.01])
    with pytest.raises(cs.InputError):
        cs.ZeroCurve([1.0, 1.0], [0.01, 0.01])
    with pytest.raises(cs.InputError):
        cs.ZeroCurve(PILLAR_MONTHS, PILLAR_RATES, interp="quartic")
    with pytest.raises(cs.InputError):
        cs.ZeroCurve([1.0, 2.0], [0.01, float("nan")])
    with pytest.raises(cs.InputError):
        cs.ZeroCurve([1.0, float("inf")], [0.01, 0.01])


def test_malformed_csv_names_location(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("maturity_months,zero_rate_pct\n1,0.10\n3,oops\n")
    with pytest.raises(cs.InputError) as err:
        cs.ZeroCurve.from_csv(path)
    message = str(err.value)
    assert "curve.csv" in message
    assert "line 3" in message
    assert "zero_rate_pct" in message


def test_missing_column_reported(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("months,zero_rate_pct\n1,0.10\n")
    with pytest.raises(cs.InputError) as err:
        cs.ZeroCurve.from_csv(path)
    assert "maturity_months" in str(err.value)
