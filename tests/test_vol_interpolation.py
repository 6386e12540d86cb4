"""Vol curve families: steps, kernel ramps, splines, and shape filters."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import capstrip as cs
from capstrip.vol_interpolation import build_hyman_nonneg_c1

DELTA = 1.0 / 12.0

TAUS = np.array([1.0, 2.0, 4.0, 7.0, 11.0]) / 12.0
VALS = np.array([80.0, 101.0, 93.0, 95.0, 90.0]) * 1e-4

KERNEL_FAMILIES = ("flat-linear", "flat-smooth", "cosine", "quintic")


def flat_curve():
    return cs.VolCurve("flat", TAUS, VALS, delta=DELTA)


def test_step_conventions():
    curve = flat_curve()
    np.testing.assert_array_equal(curve(TAUS), VALS)
    assert curve(1.5 / 12.0) == VALS[1]
    assert curve(0.0) == VALS[0]
    assert curve(2.0) == VALS[-1]


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernel_beta_zero_matches_step_on_fixing_grid(family):
    curve = cs.VolCurve(family, TAUS, VALS, beta=0.0, delta=DELTA)
    grid = np.arange(1, 16) / 12.0
    np.testing.assert_array_equal(curve(grid), flat_curve()(grid))


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
def test_fixing_grid_equality_for_any_kernel(family, beta):
    """Every kernel curve agrees with the step curve at multiples of the
    tenor, for any ramp width up to a full cell."""
    curve = cs.VolCurve(family, TAUS, VALS, beta=beta, delta=DELTA)
    grid = np.arange(1, 16) / 12.0
    np.testing.assert_allclose(curve(grid), flat_curve()(grid), rtol=0, atol=1e-18)


def test_fixing_grid_equality_random_nodes():
    rng = np.random.default_rng(7)
    grid = np.arange(1, 25) / 12.0
    for _ in range(50):
        k = rng.integers(2, 7)
        months = np.sort(rng.choice(np.arange(1, 24), size=k, replace=False))
        taus = months / 12.0
        vals = rng.uniform(10e-4, 150e-4, size=k)
        step = cs.VolCurve("flat", taus, vals, delta=DELTA)
        for family in KERNEL_FAMILIES:
            beta = float(rng.uniform(0.0, 1.0))
            curve = cs.VolCurve(family, taus, vals, beta=beta, delta=DELTA)
            np.testing.assert_allclose(curve(grid), step(grid), rtol=0, atol=1e-18)


def test_smoothstep_ramp_midpoint_is_average():
    taus = np.array([1.0, 2.0]) / 12.0
    vals = np.array([80.0, 100.0]) * 1e-4
    curve = cs.VolCurve("flat-smooth", taus, vals, beta=1.0, delta=DELTA)
    assert curve(1.5 / 12.0) == pytest.approx(np.mean(vals), rel=1e-15)


def _slope_gap(curve, x, h):
    # one-sided slopes differ by O(h * f'') for a C1 function and by the
    # derivative jump itself at a kink
    left = (curve(x) - curve(x - h)) / h
    right = (curve(x + h) - curve(x)) / h
    return abs(float(right) - float(left))


def _second_diff_gap(curve, x, h):
    second = lambda y: (curve(y + h) - 2.0 * curve(y) + curve(y - h)) / h**2
    return abs(float(second(x + h)) - float(second(x - h)))


def test_smoothstep_is_c1_at_ramp_ends():
    taus = np.array([1.0, 2.0]) / 12.0
    vals = np.array([80.0, 100.0]) * 1e-4
    curve = cs.VolCurve("flat-smooth", taus, vals, beta=0.5, delta=DELTA)
    c = taus[0] + 0.5 * DELTA
    half_width = 0.5 * 0.5 * DELTA
    for edge in (c - half_width, c + half_width):
        gap = _slope_gap(curve, edge, 1e-6)
        finer = _slope_gap(curve, edge, 0.25e-6)
        assert finer <= 0.35 * gap + 1e-9
    # contrast: the step family keeps a genuine kink, the gap does not shrink
    step = cs.VolCurve("flat", taus, vals, delta=DELTA)
    assert _slope_gap(step, taus[0], 0.25e-6) > 1e3 * _slope_gap(curve, c - half_width, 0.25e-6)


def test_quintic_is_c2_at_ramp_ends():
    taus = np.array([1.0, 2.0]) / 12.0
    vals = np.array([80.0, 100.0]) * 1e-4
    curve = cs.VolCurve("quintic", taus, vals, beta=0.5, delta=DELTA)
    smooth = cs.VolCurve("flat-smooth", taus, vals, beta=0.5, delta=DELTA)
    c = taus[0] + 0.5 * DELTA
    half_width = 0.5 * 0.5 * DELTA
    for edge in (c - half_width, c + half_width):
        gap = _second_diff_gap(curve, edge, 2e-5)
        finer = _second_diff_gap(curve, edge, 1e-5)
        # the curvature mismatch across the edge must vanish linearly in h
        assert finer <= 0.6 * gap + 1e-6
        # contrast: the cubic smoothstep has a curvature jump there
        assert _second_diff_gap(smooth, edge, 1e-5) > 0.9 * _second_diff_gap(smooth, edge, 2e-5)


def test_beta_out_of_range_rejected():
    curve = cs.VolCurve("flat-smooth", TAUS, VALS, beta=1.5, delta=DELTA)
    with pytest.raises(cs.InputError):
        curve(0.5)
    with pytest.raises(cs.InputError):
        cs.VolCurve("flat-smooth", TAUS, VALS, beta=-0.1, delta=DELTA)(0.5)


def test_linear_family():
    curve = cs.VolCurve("linear", TAUS, VALS)
    np.testing.assert_array_equal(curve(TAUS), VALS)
    mid = 0.5 * (TAUS[0] + TAUS[1])
    assert curve(mid) == pytest.approx(0.5 * (VALS[0] + VALS[1]), rel=1e-15)
    assert curve(5.0) == VALS[-1]


def test_cubic_family_reproduces_linear_data():
    taus = np.linspace(0.1, 2.0, 6)
    vals = 3e-3 + 2e-3 * taus
    curve = cs.VolCurve("cubic", taus, vals)
    grid = np.linspace(0.1, 2.0, 200)
    np.testing.assert_allclose(curve(grid), 3e-3 + 2e-3 * grid, rtol=1e-12)
    np.testing.assert_allclose(curve(taus), vals, rtol=1e-14)


def test_monotone_spline_linear_data_exact():
    x = np.array([0.0, 1.0, 2.5, 4.0])
    f = 2.0 + 0.5 * x
    spline = cs.build_monotone_c2(x, f)
    grid = np.linspace(0.0, 4.0, 300)
    np.testing.assert_allclose(spline(grid), 2.0 + 0.5 * grid, rtol=1e-13)


def test_monotone_spline_preserves_monotone_data():
    x = np.array([0.0, 0.5, 1.0, 1.2, 3.0, 5.0])
    f = np.array([0.0, 0.02, 0.021, 0.3, 0.31, 1.0])
    spline = cs.build_monotone_c2(x, f)
    grid = np.linspace(0.0, 5.0, 4001)
    assert np.min(np.diff(spline(grid))) >= -1e-14


def test_monotone_spline_on_fixture_time_values(schedule, clean_quotes):
    report = cs.decompose(schedule, clean_quotes)
    x = np.concatenate(([0.0], clean_quotes.maturities_months / 12.0))
    f = np.concatenate(([0.0], report.time_value_bp * 1e-4))
    spline = cs.build_monotone_c2(x, f)
    grid = np.linspace(0.0, 15.0, 6001)
    assert np.min(np.diff(spline(grid))) >= -1e-14


def test_hyman_zero_node_pins_derivative():
    curve = build_hyman_nonneg_c1(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 1.0]))
    h = 1e-7
    assert abs(float(curve(1.0 + h)) - float(curve(1.0 - h))) / (2 * h) <= 1e-6
    grid = np.linspace(0.0, 2.0, 10001)
    assert float(np.min(curve(grid))) >= 0.0


def test_hyman_inactive_clamps_reproduce_bessel_hermite():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    f = np.array([10.0, 11.0, 13.0, 16.0])
    s = np.diff(f) / np.diff(x)
    bessel = np.empty(4)
    bessel[0] = s[0]
    bessel[-1] = 0.0  # flat right end by construction
    for k in (1, 2):
        h0, h1 = x[k] - x[k - 1], x[k + 1] - x[k]
        bessel[k] = (h1 * s[k - 1] + h0 * s[k]) / (h0 + h1)
    reference = CubicHermiteSpline(x, f, bessel)
    curve = build_hyman_nonneg_c1(x, f)
    grid = np.linspace(0.0, 3.0, 801)
    np.testing.assert_allclose(curve(grid), reference(grid), rtol=0, atol=1e-13)


def test_hyman_never_negative_on_random_sets():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        x = np.sort(rng.uniform(0.0, 10.0, size=k))
        while np.min(np.diff(x)) < 1e-3:
            x = np.sort(rng.uniform(0.0, 10.0, size=k))
        f = rng.uniform(0.0, 0.03, size=k)
        f[rng.random(size=k) < 0.2] = 0.0
        curve = build_hyman_nonneg_c1(x, f)
        grid = np.linspace(x[0], x[-1], 801)
        worst = min(worst, float(np.min(curve(grid))))
    assert worst >= -1e-12


def test_hyman_family_extrapolates_flat():
    curve = cs.VolCurve("hyman", TAUS, VALS)
    np.testing.assert_allclose(curve(TAUS), VALS, atol=1e-18)
    assert curve(5.0) == pytest.approx(VALS[-1], abs=1e-18)
    assert curve(0.0) == pytest.approx(VALS[0], abs=1e-18)


def test_node_validation():
    with pytest.raises(cs.InputError):
        cs.VolCurve("flat", [1.0, 1.0], [0.01, 0.01])
    with pytest.raises(cs.InputError):
        cs.VolCurve("flat", [1.0, 2.0], [0.01])
    with pytest.raises(cs.InputError):
        cs.VolCurve("spliney", [1.0, 2.0], [0.01, 0.01])
