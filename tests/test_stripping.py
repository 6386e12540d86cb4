import warnings

import numpy as np
import pytest
from curve_oracles import cap_price_from_flat_vol, family_oracle, flat_vol_oracle, intrinsic_vector
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import capstrip as cs
from capstrip.cli import _STANDARD_ROWS, compare_methods
from capstrip.diagnostics import Ladder
from capstrip.stripping import FLOOR_GAP, PRICE_TOL_BP, CurveBasis, _GlobalProblem
from capstrip.vol_interpolation import basis_matrix, hermite_basis, hyman_slopes


def _counts(schedule, months):
    return np.array([schedule.caplet_count(m) for m in months])


KERNELS = ("price", "price_vega", "price_greeks")
LOCAL_FAMILIES = ("flat", "flat-linear", "flat-smooth", "cosine", "quintic", "linear")


def _count_kernel_passes(monkeypatch):
    """Hook every pricing kernel of CapletTable; returns the list of passes.

    price_vector and the other vector functions price through these
    kernels, so each pass over caplets is counted once, whoever makes it.
    """
    passes = []

    def counted(name, kernel):
        def wrapper(self, vols):
            passes.append(name)
            return kernel(self, vols)

        return wrapper

    for name in KERNELS:
        kernel = getattr(cs.bachelier.CapletTable, name)
        monkeypatch.setattr(cs.bachelier.CapletTable, name, counted(name, kernel))
    return passes


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


def test_strip_config_rejects_an_unknown_placement():
    """A bad placement fails where the config is made, before any ladder is priced."""
    with pytest.raises(cs.InputError, match="unknown node placement 'edge'"):
        cs.StripConfig(placement="edge")


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
    assert result.stop_reason == "approximate"
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


@pytest.mark.parametrize("family", ["flat", "linear", "cubic", "hyman"])
def test_bootstrap_clamps_at_the_bracket_limit(schedule, clean_quotes, family):
    # 3e6 bp: no node value up to the bracket limit prices this cap
    vols = clean_quotes.flat_vols.copy()
    vols[5] = 300.0
    quotes = cs.CapQuoteSet(clean_quotes.maturities_months, vols, clean_quotes.strike)
    result = cs.bootstrap_sequential(schedule, quotes, cs.StripConfig(family=family))
    assert result.node_values[5] == cs.stripping.BRACKET_START * 2**11
    assert int(quotes.maturities_months[5]) in result.clamped_months
    assert result.stop_reason == "clamped"


def _assert_unclamped_caps_reprice(schedule, quotes, market, result):
    """Each bootstrap node not clamped prices its cap on the curve through nodes 0..q."""
    months = quotes.maturities_months
    for q, month in enumerate(months):
        if month in result.clamped_months:
            continue
        model = _cap_prices_from_nodes(
            schedule, quotes.strike, result.config.family, result.node_times[: q + 1],
            result.node_values[: q + 1], months[: q + 1],
        )[-1]
        assert abs(model - market[q]) * 1e4 <= 1e-10


@pytest.mark.parametrize("ladder", ["raw", "clean"])
@pytest.mark.parametrize("family", cs.FAMILIES)
def test_bootstrap_prices_few_caps(monkeypatch, schedule, quotes, clean_quotes, family, ladder):
    ladder_quotes = quotes if ladder == "raw" else clean_quotes
    config = cs.StripConfig(family=family)
    # the ladder's market prices and table, as strip_global's start gets its call's
    shared = Ladder(schedule, ladder_quotes)
    market = shared.market
    passes = _count_kernel_passes(monkeypatch)
    result = cs.stripping._bootstrap(shared, config)
    monkeypatch.undo()

    # cubic and hyman: one kernel pass per Newton step of each node (the
    # first prices the whole prefix once and splits it), and hyman also
    # tests zero vol first; the local families: one pass per Newton step
    # of the whole ladder
    assert len(passes) < {"cubic": 40, "hyman": 60}.get(family, 20)
    _assert_unclamped_caps_reprice(schedule, ladder_quotes, market, result)
    if ladder == "raw" and family == "flat":
        assert result.clamped_months == [4, 5, 6, 24]


@pytest.mark.parametrize("ladder", ["raw", "clean"])
@pytest.mark.parametrize("family", cs.FAMILIES)
def test_bootstrap_builds_one_basis_per_ladder(
    monkeypatch, schedule, quotes, clean_quotes, family, ladder
):
    """The local families read every node off one basis of the whole ladder;
    cubic and hyman cut theirs from one Hermite basis of the whole ladder,
    and cubic's linear prefixes of one and two nodes are built apart."""
    ladder_quotes = quotes if ladder == "raw" else clean_quotes
    builds = []
    for name, nodes_arg in (("basis_matrix", 1), ("hermite_basis", 0)):

        def counted(*args, name=name, nodes_arg=nodes_arg, build=getattr(cs.stripping, name)):
            builds.append((name, len(args[nodes_arg])))
            return build(*args)

        monkeypatch.setattr(cs.stripping, name, counted)
    cs.stripping._bootstrap(Ladder(schedule, ladder_quotes), cs.StripConfig(family=family))
    monkeypatch.undo()
    nodes = len(ladder_quotes)
    expected = {
        "cubic": [("hermite_basis", nodes), ("basis_matrix", 1), ("basis_matrix", 2)],
        "hyman": [("hermite_basis", nodes)],
    }.get(family, [("basis_matrix", nodes)])
    assert builds == expected


def _ladder_nodes(schedule, ladder_quotes):
    """(caplet counts, at-maturity node times, the ladder's fixings)."""
    counts = _counts(schedule, ladder_quotes.maturities_months)
    taus = cs.place_nodes(ladder_quotes.maturities_months, 1, "maturity")
    return counts, taus, schedule.fixing_times[: counts[-1]]


@pytest.mark.parametrize("ladder", ["raw", "clean"])
def test_cubic_prefix_bases_are_cut_from_the_ladder_hermite_basis(
    schedule, quotes, clean_quotes, ladder
):
    ladder_quotes = quotes if ladder == "raw" else clean_quotes
    counts, taus, times = _ladder_nodes(schedule, ladder_quotes)
    hermite = hermite_basis(taus, times)
    for q, rows in enumerate(counts):
        prefix = cs.stripping._cubic_prefix(hermite, taus, times[:rows], q)
        expected = basis_matrix("cubic", taus[: q + 1], times[:rows])
        assert prefix.tobytes() == expected.tobytes(), q
    # midpoint nodes reach past cap q's last fixing, where the cut basis is not the prefix's
    for family in ("cubic", "hyman"):
        with pytest.raises(cs.InputError, match="at-maturity"):
            cs.stripping._bootstrap(Ladder(schedule, ladder_quotes), cs.StripConfig(family, "mid"))


@pytest.mark.parametrize("ladder", ["raw", "clean"])
def test_hyman_line_reads_the_prefix_curve_basis(schedule, quotes, clean_quotes, ladder):
    """line(x) is the (fixed, column) of hyman's basis of nodes 0..q, to the
    bit, on the fixings node q moves and on all of cap q's. The known nodes
    are the bootstrap's (the raw ladder's clamped ones at zero, with zero
    slope rows), and the x switch node q-1's slope row between its Bessel
    form and both clamp bounds."""
    ladder_quotes = quotes if ladder == "raw" else clean_quotes
    counts, taus, times = _ladder_nodes(schedule, ladder_quotes)
    hermite = hermite_basis(taus, times)
    result = cs.bootstrap_sequential(schedule, ladder_quotes, cs.StripConfig(family="hyman"))
    values = result.node_values
    scale = ladder_quotes.flat_vols
    for q, rows in enumerate(counts):
        known = values[:q]
        known_map = hyman_slopes(taus[:q], known)[1]
        line, start = cs.stripping._hyman_line(hermite, taus, times[:rows], known, known_map)
        if q >= 2:
            assert times[start - 1] <= taus[q - 2] < times[start]
        else:
            assert start == 0
        basis = CurveBasis("hyman", taus[: q + 1], times[:rows], 1.0, 1.0 / 12.0)
        for x in [values[q], *(scale[q] * np.array([0.0, -10.0, 0.01, 0.5, 3.0, 100.0]))]:
            matrix = basis.matrix(np.append(known, x))
            fixed, column = matrix[:, :q] @ known, matrix[:, q]
            for got, part in ((line(x), slice(start, None)), (line(x, slice(None)), slice(None))):
                assert got[0].tobytes() == fixed[part].tobytes(), (q, x)
                assert got[1].tobytes() == column[part].tobytes(), (q, x)


@pytest.mark.parametrize("ladder", ["raw", "clean"])
def test_hyman_bootstrap_grows_one_slope_map(
    monkeypatch, schedule, quotes, clean_quotes, ladder
):
    """The hyman bootstrap carries the slope map of its solved nodes from
    node to node, adding one slope row per node on at most three nodes. So
    the one hyman_slopes call over more than three nodes is the final
    curve's, and each node past the second makes one call besides its
    line's. The grown map is the prefix's own, to the bit."""
    ladder_quotes = quotes if ladder == "raw" else clean_quotes
    nodes = len(ladder_quotes)
    calls = []
    for owner in (cs.stripping, cs.vol_interpolation):

        def counted(x, f, owner=owner, slopes=hyman_slopes):
            calls.append((owner.__name__, len(x)))
            return slopes(x, f)

        monkeypatch.setattr(owner, "hyman_slopes", counted)
    line_calls = []

    def counted_line(*args, build=cs.stripping._hyman_line):
        line, start = build(*args)

        def counted(*line_args):
            line_calls.append(len(args[3]))
            return line(*line_args)

        return counted, start

    monkeypatch.setattr(cs.stripping, "_hyman_line", counted_line)
    result = cs.bootstrap_sequential(schedule, ladder_quotes, cs.StripConfig(family="hyman"))
    monkeypatch.undo()
    assert [size for _, size in calls if size > 3] == [nodes]
    assert calls[-1] == ("capstrip.vol_interpolation", nodes)
    assert len(calls) == (nodes - 2) + len(line_calls) + 1
    assert len(calls) < 60
    known_map = np.zeros((0, 0))
    for q in range(1, nodes + 1):
        known = result.node_values[:q]
        known_map = cs.stripping._grow_slope_map(known_map, result.node_times, known)
        assert known_map.tobytes() == hyman_slopes(result.node_times[:q], known)[1].tobytes(), q


@pytest.mark.parametrize("ladder", ["raw", "clean"])
def test_global_start_bootstraps_the_nodes_alone(
    monkeypatch, schedule, quotes, clean_quotes, ladder
):
    """strip_global's start asks the bootstrap for its nodes only: they are
    the full result's, to the bit, and no curve or result is built for them.
    The start runs on the global call's own ladder: one Ladder is built and
    the market is priced once. So do decompose, the tv engine, whose kept
    quotes are a cut of its one ladder, and the bootstrap. Beyond the
    market's pricing, each builds one CapletTable, its Ladder's: tv inverts
    on that table."""
    ladder_quotes = quotes if ladder == "raw" else clean_quotes
    shared = Ladder(schedule, ladder_quotes)
    configs = [cs.StripConfig(family=family) for family in cs.FAMILIES] + [
        cs.StripConfig(family=family, placement="mid") for family in ("flat", "linear")
    ]
    for config in configs:
        result = cs.stripping._bootstrap(shared, config)
        nodes = cs.stripping._bootstrap(shared, config, nodes_only=True)
        assert nodes.tobytes() == result.node_values.tobytes(), config

    built = []
    for owner, name, label in (
        (cs.stripping, "VolCurve", "VolCurve"),
        (cs.diagnostics, "Ladder", "Ladder"),
        (cs.stripping, "_result", "result"),
        (cs.diagnostics, "cap_prices", "cap_prices"),
        (cs.bachelier.CapletTable, "__init__", "CapletTable"),
    ):

        def counted(*args, label=label, build=getattr(owner, name), **kwargs):
            built.append(label)
            return build(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    # cap_prices prices the market on a table of its own, then Ladder builds its table
    market = ["Ladder", "cap_prices", "CapletTable", "CapletTable"]
    cs.strip_global(schedule, ladder_quotes, cs.StripConfig(family="cubic", placement="mid"))
    assert built == [*market, "result"]
    built.clear()
    cs.decompose(schedule, ladder_quotes)
    assert built == market
    built.clear()
    result = cs.strip_time_value(schedule, ladder_quotes)
    assert built == [*market, "result"]
    assert bool(result.removed_months) == (ladder == "raw")
    built.clear()
    cs.bootstrap_sequential(schedule, ladder_quotes, cs.StripConfig(family="cubic"))
    monkeypatch.undo()
    assert built == [*market, "VolCurve", "result"]


@pytest.mark.parametrize("family", ["linear", "cubic", "hyman"])
def test_jacobian_makes_no_kernel_pass(monkeypatch, schedule, clean_quotes, family):
    config = cs.StripConfig(family=family, placement="mid")
    problem = _GlobalProblem(Ladder(schedule, clean_quotes), config)
    x = 70e-4 + 8e-4 * np.sin(np.arange(len(clean_quotes)))
    passes = _count_kernel_passes(monkeypatch)
    _, point = problem.residuals(x)
    assert passes == ["price_vega"]
    problem.jacobian(point)
    assert passes == ["price_vega"]


def _bracketed_node(cap_price, target):
    """A bootstrap node by bracket doubling and Brent: returns (x, clamped)."""
    if cap_price(0.0) >= target:
        return 0.0, True
    hi = cs.stripping.BRACKET_START
    while cap_price(hi) < target and hi < cs.stripping.BRACKET_LIMIT:
        hi *= 2.0
    if cap_price(hi) < target:
        return hi, True
    return brentq(lambda x: cap_price(x) - target, 0.0, hi, xtol=1e-16, rtol=8.9e-16), False


def _bracketed_nodes(schedule, ladder_quotes, result):
    """Every node of a bootstrap result by bracket doubling and Brent on the
    family's curve through nodes 0..q, the earlier nodes the result's:
    returns (nodes, clamped months)."""
    config = result.config
    market = cs.diagnostics.cap_prices(schedule, ladder_quotes)
    counts = _counts(schedule, ladder_quotes.maturities_months)
    full_table = Ladder(schedule, ladder_quotes).table
    taus, nodes = result.node_times, result.node_values
    bracketed, clamped = [], []
    for q, rows in enumerate(counts):
        basis = CurveBasis(
            config.family, taus[: q + 1], schedule.fixing_times[:rows], config.beta, 1 / 12
        )
        table = full_table[:rows]

        def cap_price(x, basis=basis, table=table, q=q):
            values = np.append(nodes[:q], x)
            return table.price(np.maximum(basis.matrix(values) @ values, 0.0)).sum()

        node, at_clamp = _bracketed_node(cap_price, market[q])
        bracketed.append(node)
        if at_clamp:
            clamped.append(int(ladder_quotes.maturities_months[q]))
    return np.array(bracketed), clamped


@pytest.mark.parametrize("ladder, clamped", [("clean", [5]), ("raw", [4, 5, 6, 24, 60, 84])])
def test_hyman_newton_agrees_with_the_bracketed_solve(
    schedule, quotes, clean_quotes, ladder, clamped
):
    ladder_quotes = quotes if ladder == "raw" else clean_quotes
    result = cs.bootstrap_sequential(schedule, ladder_quotes, cs.StripConfig(family="hyman"))
    bracketed, bracket_clamped = _bracketed_nodes(schedule, ladder_quotes, result)
    gap = np.abs(result.node_values - bracketed)
    assert np.all(gap <= 1e-12 * np.abs(bracketed))
    assert result.clamped_months == bracket_clamped == clamped
    assert result.stop_reason == "clamped"


def _oracle_ladders(quotes, clean_quotes):
    """(name, quotes) of both fixture ladders at strikes 0, 200 and -50 bp,
    the clean ladder with a 3e6 bp quote that clamps at the bracket limit,
    and a ladder of quotes priced at 0."""
    for name, base in (("raw", quotes), ("clean", clean_quotes)):
        for strike_bp in (0, 200, -50):
            yield f"{name} {strike_bp}", cs.CapQuoteSet(
                base.maturities_months, base.flat_vols, strike_bp * 1e-4
            )
    vols = clean_quotes.flat_vols.copy()
    vols[5] = 300.0
    yield "limit", cs.CapQuoteSet(clean_quotes.maturities_months, vols, clean_quotes.strike)
    yield "zero", cs.CapQuoteSet(np.array([12, 24, 36]), np.array([0.0, 0.0, 1e-4]), 0.10)


def test_local_bootstrap_agrees_with_the_bracketed_solve(schedule, quotes, clean_quotes):
    """The whole-ladder Newton solve gives every node of the local families
    that a node-by-node bracketed solve gives: the same root within 1e-12,
    the same clamps."""
    configs = [cs.StripConfig(family=family) for family in LOCAL_FAMILIES] + [
        cs.StripConfig(family=family, placement="mid") for family in ("flat", "linear")
    ]
    clamps = set()
    for name, ladder_quotes in _oracle_ladders(quotes, clean_quotes):
        for config in configs:
            result = cs.stripping._bootstrap(Ladder(schedule, ladder_quotes), config)
            bracketed, clamped = _bracketed_nodes(schedule, ladder_quotes, result)
            gap = np.abs(result.node_values - bracketed)
            assert np.all(gap <= 1e-12 * bracketed), (name, config)
            assert result.clamped_months == clamped, (name, config)
            clamps.update((name, month) for month in clamped)
    # clamps at zero vol, at the bracket limit and on zero prices are all covered
    assert {("raw 0", 24), ("limit", 12), ("zero", 36)} <= clamps


@pytest.mark.parametrize(
    "ladder, strike_bp, clamped",
    [
        ("clean", -25, [5, 6, 60, 84]),
        ("clean", 50, [5, 36, 84, 180]),
        ("clean", 100, [60, 84, 180]),
        ("raw", -100, [4, 5, 24, 36, 84, 180]),
    ],
)
def test_bootstrap_node_without_a_positive_slope_tests_zero_vol(
    schedule, quotes, clean_quotes, ladder, strike_bp, clamped
):
    # at these strikes some cubic node's cap price does not rise with the
    # node at its flat-vol start; zero vol is tested next, and overprices
    base = quotes if ladder == "raw" else clean_quotes
    ladder_quotes = cs.CapQuoteSet(base.maturities_months, base.flat_vols, strike_bp * 1e-4)
    result = cs.bootstrap_sequential(schedule, ladder_quotes, cs.StripConfig(family="cubic"))
    assert result.clamped_months == clamped
    assert result.stop_reason == "clamped"
    market = cs.diagnostics.cap_prices(schedule, ladder_quotes)
    _assert_unclamped_caps_reprice(schedule, ladder_quotes, market, result)


@pytest.mark.parametrize("ladder", ["raw", "clean"])
@pytest.mark.parametrize("engine", ["bootstrap", "global"])
def test_node_engines_build_no_curve_per_node(
    monkeypatch, schedule, quotes, clean_quotes, engine, ladder
):
    """Nodes are solved on closed-form bases: the only VolCurve a bootstrap
    builds samples its final nodes."""
    ladder_quotes = quotes if ladder == "raw" else clean_quotes
    builds, bootstraps = [], []
    curve_class, bootstrap = cs.stripping.VolCurve, cs.stripping._bootstrap

    def counted_curve(*args, **kwargs):
        builds.append(args[0])
        return curve_class(*args, **kwargs)

    def counted_bootstrap(*args, **kwargs):
        bootstraps.append(args[1].family)
        return bootstrap(*args, **kwargs)

    monkeypatch.setattr(cs.stripping, "VolCurve", counted_curve)
    monkeypatch.setattr(cs.stripping, "_bootstrap", counted_bootstrap)
    if engine == "bootstrap":
        cs.bootstrap_sequential(schedule, ladder_quotes, cs.StripConfig(family="cubic"))
    else:
        cs.strip_global(schedule, ladder_quotes, cs.StripConfig(family="cubic", placement="mid"))
    monkeypatch.undo()
    assert len(bootstraps) == 1
    assert len(builds) <= len(bootstraps)


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
    targets = intrinsic_vector(f, quotes.strike, a, d) + np.diff(levels, prepend=0.0)
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
                lambda v: cap_price_from_flat_vol(schedule, m, v, 0.0) - p,
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


# near the forwards, though a short caplet can still sit far out of the money
ROUND_TRIP_STRIKE = 0.02


@pytest.fixture(scope="session")
def tenor_schedules(forward_curve, discount_curve):
    return {
        tenor: cs.build_schedule(forward_curve, discount_curve, 180, tenor) for tenor in (1, 3)
    }


@st.composite
def _exact_ladders(draw, schedules):
    """A local family, its beta, at-maturity nodes on a 1M or 3M grid, node
    values, and the prices of the caplets on their curve.

    A node is read back from its cap's price, so it is drawn only where its
    own caplets move that price by more than its round-off: a move of each
    node by the test's 1e-9 relative tolerance must move its cap's price by
    1e-14 of that price, about a hundred times its round-off. At the 200 bp
    strike a short caplet can sit far out of the money, and then it does
    not: flat nodes of 80 and 30 bp at 2M and 3M price the 3M caplet at
    1.98e-25 bp, so its node clamps at 0.
    """
    family = draw(st.sampled_from(LOCAL_FAMILIES))
    beta = draw(st.floats(min_value=0.0, max_value=1.0))
    tenor = draw(st.sampled_from([1, 3]))
    steps = st.integers(min_value=2, max_value=40)
    months = np.array(sorted(draw(st.lists(steps, min_size=1, max_size=8, unique=True)))) * tenor
    values_bp = st.floats(min_value=30.0, max_value=200.0)
    values = np.array(draw(st.lists(values_bp, min_size=len(months), max_size=len(months)))) * 1e-4
    schedule = schedules[tenor]
    taus = cs.place_nodes(months, tenor, "maturity")
    counts = _counts(schedule, months)
    n = counts[-1]
    times = schedule.fixing_times[:n]
    curve = cs.VolCurve(family, taus, values, beta=beta, delta=tenor / 12.0)(times)
    table = cs.bachelier.CapletTable(
        schedule.forwards[:n], ROUND_TRIP_STRIKE, times, schedule.accruals[:n],
        schedule.discounts[:n],
    )
    prices, vegas = table.price_vega(curve)
    # d(cap q)/d(node q), on caplets that read no later node
    weights = basis_matrix(family, taus, times, beta, tenor / 12.0)
    slopes = np.cumsum(vegas[:, None] * weights, axis=0)[counts - 1].diagonal()
    assume(np.all(slopes * values * 1e-9 > 1e-14 * np.cumsum(prices)[counts - 1]))
    return family, beta, tenor, months, values, prices


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_bootstrap_round_trip_recovers_the_nodes(tenor_schedules, data):
    """Caps priced off a known curve, quoted as flat vols, bootstrap back to its nodes."""
    family, beta, tenor, months, values, prices = data.draw(_exact_ladders(tenor_schedules))
    schedule = tenor_schedules[tenor]
    counts = _counts(schedule, months)

    def flat_vol(month, price):
        return brentq(
            lambda v: cap_price_from_flat_vol(schedule, month, v, ROUND_TRIP_STRIKE) - price,
            1e-4, 0.05, xtol=1e-16, rtol=8.9e-16,
        )

    flats = [flat_vol(m, np.sum(prices[:c])) for m, c in zip(months, counts)]
    quotes = cs.CapQuoteSet(months, flats, ROUND_TRIP_STRIKE)
    result = cs.bootstrap_sequential(schedule, quotes, cs.StripConfig(family=family, beta=beta))
    assert result.clamped_months == []
    np.testing.assert_allclose(result.node_values, values, rtol=1e-9, atol=0)
    assert result.max_abs_residual_bp <= 1e-9


@st.composite
def _priced_ladders(draw, schedules):
    """A family, midpoint nodes on a 1M or 3M grid, positive node values,
    and the caps priced on that family's zero-floored curve, each quoted
    as the flat vol that reprices it (flat_vol_oracle)."""
    family = draw(st.sampled_from(cs.FAMILIES))
    tenor = draw(st.sampled_from([1, 3]))
    steps = st.integers(min_value=2, max_value=40)
    months = np.array(sorted(draw(st.lists(steps, min_size=1, max_size=8, unique=True)))) * tenor
    values_bp = st.floats(min_value=30.0, max_value=200.0)
    values = np.array(draw(st.lists(values_bp, min_size=len(months), max_size=len(months)))) * 1e-4
    schedule = schedules[tenor]
    taus = cs.place_nodes(months, tenor, "mid")
    counts = _counts(schedule, months)
    n = counts[-1]
    curve = cs.VolCurve(family, taus, values, delta=tenor / 12.0)(schedule.fixing_times[:n])
    table = cs.bachelier.CapletTable(
        schedule.forwards[:n], ROUND_TRIP_STRIKE, schedule.fixing_times[:n],
        schedule.accruals[:n], schedule.discounts[:n],
    )
    prices = np.cumsum(table.price(np.maximum(curve, 0.0)))[counts - 1]
    try:
        flats = [flat_vol_oracle(schedule, m, p, ROUND_TRIP_STRIKE) for m, p in zip(months, prices)]
    except ValueError:
        assume(False)  # a cap priced at its intrinsic value has no flat vol
    return family, tenor, cs.CapQuoteSet(months, flats, ROUND_TRIP_STRIKE)


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_tv_and_global_mid_round_trip(tenor_schedules, data):
    """Caps priced off a known curve, quoted as flat vols, reprice within
    1e-9 bp through tv. The global fit on that curve's family at midpoint
    nodes, which can reach the curve itself, reprices them as closely, or
    says it has not: on about 1 random draw in 170 it stalls short of the
    curve (GLOBAL_MID_STALLS)."""
    family, tenor, quotes = data.draw(_priced_ladders(tenor_schedules))
    schedule = tenor_schedules[tenor]
    tv = cs.strip_time_value(schedule, quotes)
    assert tv.max_abs_residual_bp <= 1e-9 and tv.stop_reason == "priced"
    fit = cs.strip_global(schedule, quotes, cs.StripConfig(family=family, placement="mid"))
    assert fit.converged == (fit.max_abs_residual_bp <= 1e-9)
    stalls = ("gtol", "ftol", "xtol", "max_nfev")
    assert fit.stop_reason == "priced" if fit.converged else fit.stop_reason in stalls


# ladders priced off a known curve (nodes in bp) on which the free global
# fit at midpoint nodes stalls: the linear bootstrap start puts the second
# node at or near 0 bp, where the zero-floored curve has no gradient
GLOBAL_MID_STALLS = [
    ("quintic", 1, [25, 34], [0.01960464271301391, 0.013599745788526714], [196.046, 40.899]),
    ("flat-linear", 3, [51, 87], [0.015745800572480633, 0.008943217555101437], [157.458, 34.046]),
]


def _stall_fit(tenor_schedules, family, tenor, months, flats, positivity):
    quotes = cs.CapQuoteSet(np.array(months), np.array(flats), ROUND_TRIP_STRIKE)
    config = cs.StripConfig(family=family, placement="mid", positivity=positivity)
    return cs.strip_global(tenor_schedules[tenor], quotes, config)


@pytest.mark.parametrize("family, tenor, months, flats, nodes_bp", GLOBAL_MID_STALLS)
def test_global_mid_stall_ladders_are_reachable(
    tenor_schedules, family, tenor, months, flats, nodes_bp
):
    """The exp fit, whose vols never reach the floor, finds their curve."""
    fit = _stall_fit(tenor_schedules, family, tenor, months, flats, "exp")
    assert fit.converged
    np.testing.assert_allclose(fit.node_values * 1e4, nodes_bp, atol=1e-3)


@pytest.mark.xfail(strict=True, reason="the free fit stalls on its start at the zero floor")
@pytest.mark.parametrize("family, tenor, months, flats, nodes_bp", GLOBAL_MID_STALLS)
def test_global_mid_reprices_the_stall_ladders(
    tenor_schedules, family, tenor, months, flats, nodes_bp
):
    fit = _stall_fit(tenor_schedules, family, tenor, months, flats, "none")
    assert fit.max_abs_residual_bp <= 1e-9


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


def test_unknown_family_rejected():
    with pytest.raises(cs.InputError, match="unknown vol family 'spline'"):
        cs.StripConfig(family="spline")


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
        expected = family_oracle(family, taus, values, fixings, 0.5, 1.0 / 12.0)
        curve = cs.VolCurve(family, taus, values, beta=0.5, delta=1.0 / 12.0)(fixings)
        for got in (basis.matrix(values) @ values, curve):
            worst = np.max(np.abs(got - expected))
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
    problem = _GlobalProblem(Ladder(schedule, clean_quotes), config)
    # positive nodes keep the curve off the zero floor; for hyman, points
    # inside a clamp set with no bound active, and with an upper and a
    # lower bound active (nodes 1 and 4)
    node_sets = [70.0 + 8.0 * np.sin(np.arange(len(clean_quotes)))]
    if family == "hyman":
        node_sets.append(np.array([40, 10, 300, 310, 20, 250, 240, 260, 30, 200, 210.0]))
    for values in node_sets:
        x = np.log(values * 1e-4) if positivity == "exp" else values * 1e-4
        jacobian = problem.jacobian(problem.residuals(x)[1])
        h = 1e-5 * np.max(np.abs(x))
        for k in range(len(x)):
            bump = np.zeros(len(x))
            bump[k] = h
            up = problem.residuals(x + bump)[0]
            down = problem.residuals(x - bump)[0]
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
        cs.strip_global(schedule, quotes, cs.StripConfig(family=family, placement="mid")).cost
        for family in ("linear", "cubic", "hyman")
    ]
    assert max(costs) <= min(costs) * (1.0 + 1e-6)


def test_max_iter_bounds_the_residual_evaluations(schedule, quotes):
    config = cs.StripConfig(family="cubic", placement="mid", max_iter=5)
    result = cs.strip_global(schedule, quotes, config)
    assert result.iterations <= 5
    assert not result.converged
    assert result.stop_reason == "max_nfev"


GRID_FAMILIES = ("flat", "flat-smooth", "linear", "cubic", "hyman")
GRID_POSITIVITY = ("none", "nonneg", "exp", "floor")


@pytest.fixture(scope="module")
def global_grid(schedule, quotes, clean_quotes):
    """Every family x positivity global row at mid nodes, floors at 10 bp,
    on both fixture ladders, keyed by (ladder, family, positivity)."""
    return {
        (ladder, family, positivity): cs.strip_global(
            schedule, chosen,
            cs.StripConfig(family=family, placement="mid", positivity=positivity, floor_bp=10.0),
        )
        for ladder, chosen in (("raw", quotes), ("clean", clean_quotes))
        for family in GRID_FAMILIES
        for positivity in GRID_POSITIVITY
    }


def test_arbitrage_floor_of_the_fixture_ladders(schedule, quotes, clean_quotes):
    assert Ladder(schedule, quotes).floor_cost == pytest.approx(3.157460106544535e-5, rel=1e-12)
    assert Ladder(schedule, clean_quotes).floor_cost == 0.0


def test_floor_bounds_every_global_row(schedule, quotes, clean_quotes, global_grid):
    floors = {"raw": Ladder(schedule, quotes).floor_cost, "clean": 0.0}
    for (ladder, *_), result in global_grid.items():
        assert result.floor_cost == floors[ladder]
        assert result.gap_to_floor >= -1e-12 * result.floor_cost, result.config


def test_floor_stops_are_within_the_gap(global_grid):
    stops = [result for result in global_grid.values() if result.stop_reason == "floor"]
    assert len(stops) >= 6
    for result in stops:
        assert not result.converged
        assert result.gap_to_floor <= FLOOR_GAP * result.floor_cost, result.config


@pytest.mark.parametrize(
    "family,positivity,evaluations",
    # the residual evaluations each row took before it could stop at the floor
    [("linear", "none", 63), ("cubic", "none", 139), ("hyman", "none", 41),
     ("linear", "exp", 32), ("cubic", "exp", 37)],
)
def test_raw_rows_stop_at_the_floor_sooner(global_grid, family, positivity, evaluations):
    result = global_grid["raw", family, positivity]
    assert result.stop_reason == "floor"
    assert result.iterations < evaluations


BOOTSTRAP_CONFIGS = [cs.StripConfig(family=family) for family in cs.FAMILIES] + [
    cs.StripConfig(family="flat", placement="mid")
]


def test_priced_exactly_when_converged(
    schedule, forward_curve, discount_curve, quotes, clean_quotes, global_grid
):
    """Every engine reads 'priced' exactly when it has converged: the
    ladder reprices, and no bootstrap node clamped. tv reads 'approximate'
    otherwise, as on a far quote so large (240M at 1e305 bp) that no vol
    reprices its cap."""
    bootstraps = [
        cs.bootstrap_sequential(schedule, chosen, config)
        for chosen in (quotes, clean_quotes)
        for config in BOOTSTRAP_CONFIGS
    ]
    tvs = [cs.strip_time_value(schedule, chosen) for chosen in (quotes, clean_quotes)]
    far = cs.add_synthetic_far_quote(quotes, 240, 1e305 * 1e-4)
    tvs.append(cs.strip_time_value(cs.build_schedule(forward_curve, discount_curve, 240), far))
    for result in [*global_grid.values(), *bootstraps, *tvs]:
        assert (result.stop_reason == "priced") == result.converged, result.config
        repriced = result.max_abs_residual_bp <= PRICE_TOL_BP
        assert result.converged == (repriced and not result.clamped_months), result.config
    reasons = {result.stop_reason for result in bootstraps}
    assert reasons == {"priced", "clamped", "approximate"}
    assert [result.stop_reason for result in tvs] == ["priced", "priced", "approximate"]


@pytest.mark.parametrize("ladder", ["raw", "clean"])
@pytest.mark.parametrize("family", ["flat", "linear", "cubic", "hyman"])
def test_bootstrap_out_of_steps_is_not_priced(
    monkeypatch, schedule, quotes, clean_quotes, family, ladder
):
    """A node that runs out of steps, in the whole-ladder solve or in its own
    (no shipped ladder does), stops finite inside the bracket, and the
    result does not read 'priced'."""
    chosen = quotes if ladder == "raw" else clean_quotes
    monkeypatch.setattr(cs.stripping, "NEWTON_MAX_ITER", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = cs.bootstrap_sequential(schedule, chosen, cs.StripConfig(family=family))
    nodes = result.node_values
    assert np.all(np.isfinite(nodes)), nodes
    assert np.all((nodes >= 0.0) & (nodes <= cs.stripping.BRACKET_LIMIT)), nodes
    assert not result.converged
    assert result.stop_reason != "priced"
