import numpy as np
import pytest
from scipy.optimize import brentq

import capstrip as cs
from capstrip.cli import _STANDARD_ROWS, compare_methods
from capstrip.stripping import CurveBasis, EvaluationCore, VolMap
from capstrip.vol_interpolation import hyman_slopes


def _counts(schedule, months):
    return np.array([schedule.caplet_count(m) for m in months])


def _cap_prices_from_nodes(schedule, strike, family, taus, values, months, beta=1.0):
    """Model cap prices for a node vector, the engines' evaluation convention."""
    counts = _counts(schedule, months)
    curve = cs.VolCurve(family, taus, values, beta=beta)
    vols = np.maximum(curve(schedule.fixing_times[: counts[-1]]), 0.0)
    prices = cs.price_vector(
        schedule.forwards[: counts[-1]],
        strike,
        schedule.fixing_times[: counts[-1]],
        schedule.accruals[: counts[-1]],
        schedule.discounts[: counts[-1]],
        vols,
        clamp=True,
    )
    return np.concatenate(([0.0], np.cumsum(prices)))[counts]


def test_node_placement_examples():
    atmat = cs.place_nodes([2, 3], 1, "maturity")
    assert np.allclose(atmat, [1.0 / 12.0, 2.0 / 12.0], rtol=0, atol=1e-15)
    mid = cs.place_nodes([2, 3], 1, "mid")
    assert np.allclose(mid, [1.0 / 12.0, 1.5 / 12.0], rtol=0, atol=1e-15)


def test_node_placement_fixture_ladder(quotes):
    mid = cs.place_nodes(quotes.maturities_months, 1, "mid")
    assert mid[0] == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert mid[-1] == pytest.approx(149.0 / 12.0, rel=1e-15)
    assert np.all(np.diff(mid) > 0)


def test_node_placement_validation():
    with pytest.raises(cs.InputError):
        cs.place_nodes([1, 2], 1, "maturity")  # first node at zero
    with pytest.raises(cs.InputError):
        cs.place_nodes([3, 3], 1, "maturity")
    with pytest.raises(cs.InputError):
        cs.place_nodes([2, 3], 1, "centred")


def test_synthetic_far_quote(quotes):
    extended = cs.add_synthetic_far_quote(quotes, 600)
    assert len(extended) == len(quotes) + 1
    assert extended.maturities_months[-1] == 600
    assert extended.flat_vols[-1] == quotes.flat_vols[-1]
    custom = cs.add_synthetic_far_quote(quotes, 600, vol=0.0080)
    assert custom.flat_vols[-1] == 0.0080
    with pytest.raises(cs.InputError):
        cs.add_synthetic_far_quote(quotes, 180)


def test_bootstrap_flat_on_clean_quotes(schedule, clean_quotes):
    result = cs.bootstrap_sequential(schedule, clean_quotes, cs.StripConfig(family="flat"))
    assert result.max_abs_residual_bp <= 1e-10
    assert result.converged
    assert result.stop_reason == "priced"
    assert result.clamped_months == []
    assert np.all(result.caplet_vols >= 0.0)
    assert np.all(result.node_values > 0.0)


@pytest.mark.parametrize("family", ["flat-linear", "flat-smooth", "cosine", "quintic"])
@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
def test_kernel_bootstrap_matches_flat_nodes(schedule, clean_quotes, family, beta):
    # the transition ramps straddle each node and integrate out of the
    # cap equations, so every kernel bootstraps to the same node values
    flat = cs.bootstrap_sequential(schedule, clean_quotes, cs.StripConfig(family="flat"))
    kern = cs.bootstrap_sequential(
        schedule, clean_quotes, cs.StripConfig(family=family, beta=beta)
    )
    rel = np.max(np.abs(kern.node_values - flat.node_values) / flat.node_values)
    assert rel <= 1e-12


def test_bootstrap_single_cap(schedule, quotes):
    single = cs.CapQuoteSet(quotes.maturities_months[:1], quotes.flat_vols[:1])
    result = cs.bootstrap_sequential(schedule, single, cs.StripConfig(family="flat"))
    # a one-caplet cap under a flat curve is the flat quote itself
    assert result.node_values[0] == pytest.approx(quotes.flat_vols[0], rel=1e-12)
    assert result.max_abs_residual_bp <= 1e-12


def test_bootstrap_midpoint_needs_flat_family(schedule, clean_quotes):
    with pytest.raises(cs.InputError):
        cs.bootstrap_sequential(
            schedule, clean_quotes, cs.StripConfig(family="linear", placement="mid")
        )


def test_bootstrap_midpoint_flat_is_approximate(schedule, clean_quotes):
    # midpoint nodes reach back into earlier caps, so the sequential
    # pass misses quotes and must say so rather than claim convergence
    result = cs.bootstrap_sequential(
        schedule, clean_quotes, cs.StripConfig(family="flat", placement="mid")
    )
    assert result.clamped_months == []
    assert result.max_abs_residual_bp > 1e-3
    assert not result.converged
    refined = cs.strip_global(
        schedule, clean_quotes, cs.StripConfig(family="flat", placement="mid")
    )
    assert refined.max_abs_residual_bp < 0.5 * result.max_abs_residual_bp


def test_bootstrap_clamps_on_raw_quotes(schedule, quotes):
    result = cs.bootstrap_sequential(schedule, quotes, cs.StripConfig(family="flat"))
    assert result.clamped_months == [4, 5, 6, 24]
    assert not result.converged
    assert result.stop_reason == "clamped"
    assert np.all(result.node_values >= 0.0)
    # the clamped caps miss their quotes, everything else must still hit
    missed = np.isin(result.quote_months, result.clamped_months)
    assert np.max(np.abs(result.residuals_bp[missed])) > 1e-3
    assert np.max(np.abs(result.residuals_bp[~missed])) <= 1e-10


def test_time_value_strip_filters_and_reprices(schedule, quotes):
    result = cs.strip_time_value(schedule, quotes)
    assert result.removed_months == [3, 24]
    assert result.max_abs_residual_bp <= 1e-9
    assert result.stop_reason == "priced"
    assert np.all(result.caplet_vols >= 0.0)
    assert len(result.quote_months) == 11


def test_time_value_caplet_prices_round_trip(schedule, quotes):
    """The tv engine's caplet vols reprice its caplet targets."""
    result = cs.strip_time_value(schedule, quotes)
    n = len(result.caplet_vols)
    spline = cs.build_monotone_c2(
        np.concatenate(([0.0], result.node_times)), np.concatenate(([0.0], result.node_values))
    )
    levels = np.maximum.accumulate(np.maximum(spline(schedule.pay_times[:n]), 0.0))
    f, a, d = schedule.forwards[:n], schedule.accruals[:n], schedule.discounts[:n]
    targets = cs.intrinsic_vector(f, quotes.strike, a, d) + np.diff(levels, prepend=0.0)
    prices = cs.price_vector(f, quotes.strike, schedule.fixing_times[:n], a, d, result.caplet_vols)
    np.testing.assert_allclose(prices, targets, rtol=1e-13, atol=0)


def test_time_value_strip_smooth_curves(data_dir, quotes):
    forward = cs.ZeroCurve.from_csv(data_dir / "libor1m_zero_curve.csv", interp="cubic")
    discount = cs.ZeroCurve.from_csv(data_dir / "ois_zero_curve.csv", interp="cubic")
    smooth = cs.build_schedule(forward, discount, 180)
    result = cs.strip_time_value(smooth, quotes)
    assert result.max_abs_residual_bp <= 1e-9


def test_far_quote_shifts_nothing_under_linear_interpolant(forward_curve, discount_curve, quotes):
    extended_schedule = cs.build_schedule(forward_curve, discount_curve, 181)
    n_inner = extended_schedule.caplet_count(180)
    # the monotone spline is not local: a knot appended beyond the last
    # true quote moves vols below it
    smooth = cs.strip_time_value(
        extended_schedule, cs.add_synthetic_far_quote(quotes, 181)
    )
    base_smooth = cs.strip_time_value(extended_schedule, quotes)
    assert np.max(np.abs(smooth.caplet_vols[:n_inner] - base_smooth.caplet_vols[:n_inner])) > 0.0


def test_round_trip_recovers_known_nodes(schedule, quotes):
    """Quotes synthesized from a known curve strip back to that curve."""
    months = quotes.maturities_months
    taus = cs.place_nodes(months, 1, "mid")
    true_nodes = (70.0 + 30.0 * np.sin(np.arange(len(months)) * 0.7)) * 1e-4
    caps = _cap_prices_from_nodes(schedule, 0.0, "linear", taus, true_nodes, months)
    flats = np.array(
        [
            brentq(
                lambda v: cs.cap_price_from_flat_vol(schedule, m, v, 0.0) - p,
                1e-6,
                0.05,
                xtol=1e-16,
                rtol=8.9e-16,
            )
            for m, p in zip(months, caps)
        ]
    )
    synth = cs.CapQuoteSet(months, flats)

    fitted = cs.strip_global(schedule, synth, cs.StripConfig(family="linear", placement="mid"))
    assert fitted.converged
    rel = np.max(np.abs(fitted.node_values - true_nodes) / true_nodes)
    assert rel <= 1e-8

    boot = cs.bootstrap_sequential(schedule, synth, cs.StripConfig(family="flat"))
    assert boot.clamped_months == []
    assert boot.max_abs_residual_bp <= 1e-10


def test_global_matches_quotes_per_family(schedule, clean_quotes):
    for family in ("linear", "cubic", "hyman"):
        result = cs.strip_global(
            schedule, clean_quotes, cs.StripConfig(family=family, placement="mid")
        )
        assert result.max_abs_residual_bp <= 1e-9, family
        assert result.converged, family


def test_positivity_modes(schedule, quotes):
    floor = cs.strip_global(
        schedule,
        quotes,
        cs.StripConfig(family="hyman", placement="mid", positivity="floor", floor_bp=10.0),
    )
    assert floor.min_node_bp == pytest.approx(10.0, abs=1e-9)
    assert floor.min_caplet_vol_bp >= 0.0

    nonneg = cs.strip_global(
        schedule, quotes, cs.StripConfig(family="linear", placement="mid", positivity="nonneg")
    )
    assert nonneg.min_node_bp >= 0.0

    exp = cs.strip_global(
        schedule, quotes, cs.StripConfig(family="linear", placement="mid", positivity="exp")
    )
    assert exp.min_node_bp > 0.0
    assert exp.min_caplet_vol_bp > 0.0


def test_unfloored_midpoint_goes_negative_on_raw_quotes(schedule, quotes):
    # kept outliers force negative interpolation nodes; this is the
    # signal the diagnostics exist to catch
    result = cs.strip_global(
        schedule, quotes, cs.StripConfig(family="linear", placement="mid")
    )
    assert result.min_node_bp < 0.0
    assert np.all(result.caplet_vols >= 0.0)  # evaluation floors at zero


def test_config_validation():
    with pytest.raises(cs.InputError):
        cs.StripConfig(positivity="clip")
    with pytest.raises(cs.InputError):
        cs.StripConfig(positivity="floor", floor_bp=-1.0)
    with pytest.raises(cs.InputError):
        cs.StripConfig(positivity="floor", floor_bp=float("nan"))
    for beta in (-0.1, 1.5, float("nan")):
        with pytest.raises(cs.InputError):
            cs.StripConfig(family="cosine", beta=beta)


def test_unknown_family_rejected(schedule, clean_quotes):
    with pytest.raises(cs.InputError):
        cs.bootstrap_sequential(schedule, clean_quotes, cs.StripConfig(family="spline"))


def test_bootstrap_jacobian_is_triangular(schedule, clean_quotes):
    """At-maturity flat nodes: cap q never sees nodes beyond its maturity."""
    months = clean_quotes.maturities_months
    taus = cs.place_nodes(months, 1, "maturity")
    base = cs.bootstrap_sequential(schedule, clean_quotes, cs.StripConfig(family="flat"))
    values = base.node_values
    p0 = _cap_prices_from_nodes(schedule, 0.0, "flat", taus, values, months)
    h = 1e-6
    for k in range(len(months)):
        bumped = values.copy()
        bumped[k] += h
        pk = _cap_prices_from_nodes(schedule, 0.0, "flat", taus, bumped, months)
        sens = np.abs(pk - p0) / h
        assert np.all(sens[:k] <= 1e-12 * np.max(sens))
        assert sens[k] > 0.0


def test_midpoint_jacobian_is_not_triangular(schedule, clean_quotes):
    months = clean_quotes.maturities_months
    taus = cs.place_nodes(months, 1, "mid")
    base = cs.strip_global(schedule, clean_quotes, cs.StripConfig(family="linear", placement="mid"))
    values = base.node_values
    p0 = _cap_prices_from_nodes(schedule, 0.0, "linear", taus, values, months)
    h = 1e-6
    coupled = False
    for k in range(1, len(months)):
        bumped = values.copy()
        bumped[k] += h
        pk = _cap_prices_from_nodes(schedule, 0.0, "linear", taus, bumped, months)
        sens = np.abs(pk - p0) / h
        if np.any(sens[:k] > 1e-6 * np.max(sens)):
            coupled = True
            break
    assert coupled


def test_increment_weights_average_near_half(schedule):
    # caplets between the 12M and 24M quotes carry average weight
    # (t - 12)/12 ~ 0.458: a vol move at the far node shows up diluted
    fixings_months = schedule.fixing_times * 12.0
    inside = (fixings_months >= 12.0) & (fixings_months < 24.0)
    weights = (fixings_months[inside] - 12.0) / 12.0
    assert 0.45 <= float(np.mean(weights)) <= 0.60


def _fixture_nodes(quotes):
    return cs.place_nodes(quotes.maturities_months, 1, "mid")


# node value sets for the hyman clamp set: none active, upper bounds active
# (sharp rises after small nodes), lower bounds active (sharp drops), and
# zero or negative nodes pinning their slopes
HYMAN_NODE_SETS = (
    np.linspace(60.0, 90.0, 13),
    np.array([1, 2, 100, 101, 3, 4, 120, 121, 122, 5, 6, 130, 131], dtype=float),
    np.array([100, 2, 95, 1, 90, 80, 4, 70, 3, 60, 50, 1, 40], dtype=float),
    np.array([0, 80, -10, 70, 0, 60, 90, -5, 75, 0, 65, 55, 0], dtype=float),
)


@pytest.mark.parametrize("family", cs.FAMILIES)
def test_curve_basis_reproduces_the_family(schedule, quotes, family):
    taus = _fixture_nodes(quotes)
    fixings = schedule.fixing_times
    basis = CurveBasis(family, taus, fixings, 0.5, 1.0 / 12.0)
    rng = np.random.default_rng(11)
    node_sets = [rng.uniform(-20.0, 150.0, len(taus)) for _ in range(20)]
    if family == "hyman":
        node_sets += list(HYMAN_NODE_SETS)
    for values in node_sets:
        values = values * 1e-4
        expected = cs.VolCurve(family, taus, values, beta=0.5, delta=1.0 / 12.0)(fixings)
        worst = np.max(np.abs(basis(values) - expected))
        assert worst <= 1e-14 * np.max(np.abs(expected)), family


def test_hyman_slope_map_covers_every_clamp_kind(quotes):
    taus = _fixture_nodes(quotes)
    kinds = set()
    for values in HYMAN_NODE_SETS:
        slopes, slope_map = hyman_slopes(taus, values * 1e-4)
        np.testing.assert_allclose(slope_map @ (values * 1e-4), slopes, rtol=1e-13, atol=1e-18)
        for k, row in enumerate(slope_map):
            if not row.any():
                kinds.add("zero")
            elif np.count_nonzero(row) == 1 and k not in (0, len(taus) - 1):
                kinds.add("upper" if row[k] > 0 else "lower")
    assert kinds == {"zero", "upper", "lower"}


@pytest.mark.parametrize("family", ["linear", "cubic", "hyman"])
@pytest.mark.parametrize("positivity", ["none", "nonneg", "exp"])
def test_core_jacobian_matches_central_differences(schedule, clean_quotes, family, positivity):
    config = cs.StripConfig(family=family, placement="mid", positivity=positivity)
    counts = _counts(schedule, clean_quotes.maturities_months)
    taus = _fixture_nodes(clean_quotes)
    core = EvaluationCore(schedule, 0.0, counts, taus, config, VolMap.of(config))
    # positive nodes keep the curve off the zero floor; for hyman, points
    # inside a clamp set with no bound active, and with an upper and a
    # lower bound active (nodes 1 and 4)
    node_sets = [70.0 + 8.0 * np.sin(np.arange(len(taus)))]
    if family == "hyman":
        node_sets.append(np.array([40, 10, 300, 310, 20, 250, 240, 260, 30, 200, 210.0]))
    for values in node_sets:
        x = np.log(values * 1e-4) if positivity == "exp" else values * 1e-4
        jacobian = core.jacobian(core.evaluate(x))
        h = 1e-5 * np.max(np.abs(x))
        for k in range(len(x)):
            bump = np.zeros(len(x))
            bump[k] = h
            up = core.evaluate(x + bump).cap_prices
            down = core.evaluate(x - bump).cap_prices
            central = (up - down) / (2.0 * h)
            scale = np.max(np.abs(central))
            assert scale > 0.0
            np.testing.assert_allclose(jacobian[:, k], central, rtol=0, atol=1e-5 * scale)


@pytest.mark.parametrize("family", ["linear", "cubic", "hyman"])
@pytest.mark.parametrize("positivity", ["none", "nonneg", "exp", "floor"])
def test_clean_global_rows_reprice(schedule, clean_quotes, family, positivity):
    config = cs.StripConfig(
        family=family, placement="mid", positivity=positivity, floor_bp=10.0
    )
    result = cs.strip_global(schedule, clean_quotes, config)
    assert result.converged
    assert result.stop_reason == "priced"
    assert result.max_abs_residual_bp <= 1e-10


@pytest.mark.parametrize("family", ["flat", "flat-smooth"])
@pytest.mark.parametrize("ladder", ["clean", "raw"])
def test_global_converged_means_repriced(schedule, quotes, clean_quotes, family, ladder):
    # these rows stop on a small step short of the quotes
    chosen = clean_quotes if ladder == "clean" else quotes
    result = cs.strip_global(schedule, chosen, cs.StripConfig(family=family, placement="mid"))
    assert result.converged == (result.max_abs_residual_bp <= 1e-10)
    assert result.stop_reason in ("gtol", "ftol", "xtol", "max_nfev")


def test_floor_applies_to_the_evaluated_curve(schedule, quotes):
    label, _, kwargs = next(row for row in _STANDARD_ROWS if row[0] == "hyman mid floor=10")
    rows = compare_methods(schedule, quotes, [(label, "global", cs.StripConfig(**kwargs))])
    _, min_vol_bp, min_node_bp, _ = rows[0]
    assert min_vol_bp >= 10.0
    assert min_node_bp == pytest.approx(10.0, abs=1e-9)


def _cost(result):
    """The global objective: the sum of squared relative price errors."""
    relative = result.residuals_bp / result.market_prices_bp
    return float(relative @ relative)


def test_floor_reports_the_solved_residuals(schedule, quotes):
    # the nodes are bounded at the floor while solving; raising them to it
    # afterwards would reprice a different curve
    config = cs.StripConfig(family="hyman", placement="mid", positivity="floor", floor_bp=10.0)
    result = cs.strip_global(schedule, quotes, config)
    assert result.max_abs_residual_bp < 1.0
    assert np.all(result.node_values >= 10e-4)


def test_unconstrained_mid_families_reach_one_optimum(schedule, quotes):
    # on the raw ladder the best fit of every family is the same
    # non-decreasing time-value ladder; each family must get there
    costs = [
        _cost(cs.strip_global(schedule, quotes, cs.StripConfig(family=family, placement="mid")))
        for family in ("linear", "cubic", "hyman")
    ]
    assert max(costs) <= min(costs) * (1.0 + 1e-6)


def test_max_iter_bounds_the_residual_evaluations(schedule, quotes):
    config = cs.StripConfig(family="cubic", placement="mid", max_iter=5)
    result = cs.strip_global(schedule, quotes, config)
    assert result.iterations <= 5
    assert not result.converged
    assert result.stop_reason == "max_nfev"
