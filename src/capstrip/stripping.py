"""Stripping engines: time-value interpolation, bootstrap, global solver.

All engines share one evaluation convention: the vol curve is sampled at
the caplet fixing times and mapped to pricing vols by a VolMap before
pricing: floored at zero (or at the positivity floor), so negative node
values (allowed while solving with positivity 'none') price as zero vol,
or exponentiated under 'exp'. The node engines sample the curve through a
CurveBasis, a matrix on the node values built once per solve, and the
global solver differentiates that map exactly (EvaluationCore). Each
engine call builds one Ladder: the caplet counts of the quoted caps, their
market prices at the quoted flat vols, and the caplet table that prices
the curve and reprices the result.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
# brentq is not called here; perfbench/spans.py wraps stripping.brentq by name
from scipy.optimize import brentq, least_squares  # noqa: F401

from . import bachelier, diagnostics
from .term_structures import InputError
from .vol_interpolation import (
    VolCurve,
    basis_matrix,
    build_monotone_c2,
    check_beta,
    check_family,
    hermite_basis,
    hyman_slopes,
    natural_slope_map,
)

BRACKET_START = 0.05  # 500 bp
BRACKET_LIMIT = BRACKET_START * 2**11  # 1.024e6 bp: a node that underprices here clamps
LOG_VOL_CAP = 3.0  # exp-mode curves are capped here before exponentiating
PRICE_TOL_BP = 1e-10  # a quote is repriced when its residual is within this
FLOOR_GAP = 1e-9  # the global solver stops within this share of the arbitrage floor
NEWTON_MAX_ITER = 50  # bootstrap node steps; no shipped ladder's node takes 10
NEWTON_TOL = 1e-6  # a relative Halley step this small leaves only round-off (its cube)
# least_squares status -> the stop test that fired (4: ftol and xtol both; -2:
# the callback's, which stops a repriced ladder too, but that one reads "priced")
_STOP_TESTS = {-2: "floor", 0: "max_nfev", 1: "gtol", 2: "ftol", 3: "xtol", 4: "ftol"}


def place_nodes(maturities_months, delta_months=1, placement="maturity"):
    """Node times (years) for a quote ladder.

    'maturity' puts tau_k at the last fixing of cap k (T_k - delta).
    'mid' keeps tau_1 there and centres later nodes between consecutive
    maturities, shifted back by delta.
    """
    months = np.asarray(maturities_months, dtype=float)
    if np.any(np.diff(months) <= 0):
        raise InputError("maturities must be strictly increasing")
    if placement == "maturity":
        nodes = months - delta_months
    elif placement == "mid":
        nodes = np.concatenate(
            ([months[0] - delta_months], 0.5 * (months[:-1] + months[1:]) - delta_months)
        )
    else:
        raise InputError(f"unknown node placement {placement!r}")
    if nodes[0] <= 0:
        raise InputError("first node time is not positive")
    if np.any(np.diff(nodes) <= 0):
        raise InputError("node times are not strictly increasing")
    return nodes / 12.0


def add_synthetic_far_quote(quotes, months, vol=None):
    """Append a synthetic long cap to steer extrapolation; default vol = last quote's."""
    if months <= quotes.maturities_months[-1]:
        raise InputError("synthetic quote must extend beyond the last maturity")
    if vol is None:
        vol = quotes.flat_vols[-1]
    return diagnostics.CapQuoteSet(
        np.append(quotes.maturities_months, int(months)),
        np.append(quotes.flat_vols, float(vol)),
        quotes.strike,
    )


@dataclass(frozen=True)
class StripConfig:
    family: str = "flat"
    placement: str = "maturity"
    beta: float = 1.0
    positivity: str = "none"
    floor_bp: float = 0.0
    max_iter: int = 200

    def __post_init__(self):
        check_family(self.family)
        check_beta(self.beta)
        if self.positivity not in ("none", "exp", "nonneg", "floor"):
            raise InputError(f"unknown positivity mode {self.positivity!r}")
        if self.positivity == "floor" and not 0.0 <= self.floor_bp < math.inf:
            raise InputError("floor must be a non-negative number")


@dataclass
class StripResult:
    method: str
    quote_months: np.ndarray
    market_prices_bp: np.ndarray
    residuals_bp: np.ndarray
    node_times: np.ndarray
    node_values: np.ndarray
    caplet_times: np.ndarray
    caplet_vols: np.ndarray
    removed_months: list = field(default_factory=list)
    clamped_months: list = field(default_factory=list)
    converged: bool = True
    iterations: int = 0
    stop_reason: str = "priced"
    config: StripConfig = field(default_factory=StripConfig)
    floor_cost: float = 0.0  # the ladder's arbitrage floor (diagnostics.isotonic_floor)
    # under positivity 'exp', the log-vols the curve interpolates, as solved;
    # node_values are their capped exponentials
    curve_values: np.ndarray = None

    @property
    def max_abs_residual_bp(self):
        return float(np.max(np.abs(self.residuals_bp)))

    @property
    def cost(self):
        """The global objective: the sum of squared relative price errors."""
        relative = self.residuals_bp / self.market_prices_bp
        return float(relative @ relative)

    @property
    def gap_to_floor(self):
        """cost - floor_cost: how far the fit is from the best any
        non-negative vols reach; at least 0 up to round-off, and nan where
        the floor is (a quote priced at 0)."""
        return self.cost - self.floor_cost if math.isfinite(self.floor_cost) else math.nan

    @property
    def max_rel_error(self):
        return float(np.max(np.abs(self.residuals_bp / self.market_prices_bp)))

    @property
    def min_caplet_vol_bp(self):
        return float(np.min(self.caplet_vols)) * 1e4

    @property
    def min_node_bp(self):
        return float(np.min(self.node_values)) * 1e4


class Ladder:
    """The market side of one quote ladder, built once per engine call.

    counts[q] is cap q's caplet count and market its price at its flat vol
    (diagnostics.cap_prices). times are the longest cap's fixings, table its
    CapletTable, and delta the caplet accrual in years. floor_cost is the
    least cost any non-negative vols reach (diagnostics.isotonic_floor).
    """

    def __init__(self, schedule, quotes):
        self.quotes = quotes
        self.counts = np.array([schedule.caplet_count(m) for m in quotes.maturities_months])
        self.market = diagnostics.cap_prices(schedule, quotes)
        n = self.counts[-1]
        self.times = schedule.fixing_times[:n]
        self.tenor_months = schedule.tenor_months
        self.delta = schedule.tenor_months / 12.0
        self.table = bachelier.CapletTable(
            schedule.forwards[:n], quotes.strike, self.times,
            schedule.accruals[:n], schedule.discounts[:n],
        )

    def node_times(self, placement):
        return place_nodes(self.quotes.maturities_months, self.tenor_months, placement)

    def cap_sums(self, caplet_prices):
        """Cap prices from the prices of the caplets, each cap the first counts[q]."""
        cumulative = np.concatenate(([0.0], np.cumsum(caplet_prices)))
        return cumulative[self.counts]

    @cached_property
    def floor_cost(self):
        time_values = self.market - self.cap_sums(self.table.intrinsic)
        return diagnostics.isotonic_floor(time_values, self.market)

    def residuals_bp(self, model):
        """Model minus market cap prices, in bp."""
        return (model - self.market) * 1e4

    def result(self, method, taus, values, caplet_vols, config, **kw):
        """The StripResult of these caplet vols, repriced against the market."""
        model = self.cap_sums(self.table.price(caplet_vols))
        return StripResult(
            method=method,
            quote_months=self.quotes.maturities_months.copy(),
            market_prices_bp=self.market * 1e4,
            residuals_bp=self.residuals_bp(model),
            node_times=taus,
            node_values=np.asarray(values, dtype=float),
            caplet_times=self.times,
            caplet_vols=caplet_vols,
            config=config,
            floor_cost=self.floor_cost,
            **kw,
        )


@dataclass(frozen=True)
class VolMap:
    """Curve values -> pricing vols: the engines' positivity convention.

    Under log the curve interpolates log-vols and is exponentiated, capped
    at LOG_VOL_CAP first so that no step can overflow; otherwise the curve
    is floored at `floor` (zero unless positivity is 'floor').
    """

    log: bool = False
    floor: float = 0.0

    @classmethod
    def of(cls, config, method="global"):
        """The map a result of this engine and configuration was priced with.

        Only the global solver takes the positivity mode; the other engines
        price the zero-floored curve.
        """
        if method != "global":
            return cls()
        floor = config.floor_bp * 1e-4 if config.positivity == "floor" else 0.0
        return cls(log=config.positivity == "exp", floor=floor)

    def __call__(self, curve):
        if self.log:
            return np.exp(np.minimum(curve, LOG_VOL_CAP))
        return np.maximum(curve, self.floor)

    def slope(self, curve, vols):
        """d(vols)/d(curve), one-sided (zero) where the map is clamped."""
        if self.log:
            return vols * (curve < LOG_VOL_CAP)
        return (curve > self.floor).astype(float)


class CurveBasis:
    """A vol family sampled at fixed times as a matrix on the node values.

    curve(times) = matrix(v) @ v. Every family but hyman is linear in its
    node values, so its matrix is built once, in closed form (basis_matrix).
    Hyman is a cubic Hermite spline whose slopes are linear in the values
    on each clamp set (hyman_slopes), so its matrix A + B @ S(v) is rebuilt
    per value vector from the fixed Hermite parts.
    """

    def __init__(self, family, taus, times, beta, delta):
        self.taus = np.asarray(taus, dtype=float)
        if family != "hyman":
            self._matrix = basis_matrix(family, self.taus, times, beta, delta)
        else:
            self._matrix = None
            self._hermite = hermite_basis(self.taus, times)

    def matrix(self, values):
        if self._matrix is not None:
            return self._matrix
        values_part, slopes_part = self._hermite
        return values_part + slopes_part @ hyman_slopes(self.taus, values)[1]

    def __call__(self, values):
        values = np.asarray(values, dtype=float)
        return self.matrix(values) @ values


class _Point(NamedTuple):
    matrix: np.ndarray
    curve: np.ndarray
    vols: np.ndarray
    cap_prices: np.ndarray
    vegas: np.ndarray


class EvaluationCore:
    """Node values -> vols at the fixings -> cap prices, for one Ladder.

    The curve on nodes taus is sampled at the ladder's fixings through one
    CurveBasis, and its caplets are priced off the ladder's CapletTable.
    """

    def __init__(self, ladder, taus, config, vol_map):
        self.ladder = ladder
        self.vol_map = vol_map
        self.basis = CurveBasis(config.family, taus, ladder.times, config.beta, ladder.delta)

    def evaluate(self, x):
        matrix = self.basis.matrix(x)
        curve = matrix @ x
        vols = self.vol_map(curve)
        prices, vegas = self.ladder.table.price_vega(vols)
        return _Point(matrix, curve, vols, self.ladder.cap_sums(prices), vegas)

    def jacobian(self, point):
        """d(cap prices)/dx = C diag(vega * dvol/dcurve) W at an evaluated point.

        C sums each cap's caplets; exact wherever the hyman clamp set and
        the vol map's clamps do not switch. The vegas are the point's, so
        nothing is priced here.
        """
        weights = point.vegas * self.vol_map.slope(point.curve, point.vols)
        return np.cumsum(weights[:, None] * point.matrix, axis=0)[self.ladder.counts - 1]


def _newton_node(table, fixed, column, target, start, vol_map, split, line=None,
                 zero_first=False):
    """A bootstrap node on the curve fixed + x * column, by safeguarded Newton.

    Returns (x, clamped). table prices the cap's caplets, and split =
    (held, moving) indexes them (_split_rows): moving marks those whose
    vols x can move. The held ones are priced once, at the first iterate,
    and only the moving ones are repriced. Where the line itself depends
    on x (hyman's slope clamps), line(x) re-reads (fixed, column) on the
    moving caplets at each later iterate. Each step is Newton's on the
    exact slope sum(vega * column * dvol/dcurve), with Halley's correction
    from the exact curvature sum(vomma * column^2 * dvol/dcurve) (the zero
    floor is linear off its kink). Each residual's sign narrows the
    bracket [lo, up]. A step off the bracket's left end, and an iterate
    whose slope is not positive, test zero vol next if it is untested,
    else bisect; a step past up bisects. No iterate goes past
    BRACKET_LIMIT: a step beyond it, or a bisection while up is unset,
    stops there. The node clamps at 0 when zero vol already overprices
    the cap: seen at once when the moving caplets' intrinsic does, else
    when an iterate reaches zero, or first of all with zero_first (then
    the second iterate is start). It clamps at BRACKET_LIMIT when that
    still underprices.
    """
    held, moving = split
    offset = -target
    lo, up, zero_tested = 0.0, math.inf, False
    start = min(start, BRACKET_LIMIT)
    x = 0.0 if zero_first else start
    first = True
    for _ in range(NEWTON_MAX_ITER):
        if line is not None and not first:
            fixed, column = line(x)
        curve = fixed + x * column
        vols = vol_map(curve)
        prices, vegas, vommas = table.price_greeks(vols)
        if first:
            first = False
            # the caplets that do not move keep these prices at every x
            offset += prices[held].sum()
            table = table[moving]
            fixed, column, curve, vols, prices, vegas, vommas = (
                a[moving] for a in (fixed, column, curve, vols, prices, vegas, vommas)
            )
            # no vol prices below intrinsic: if that overprices, so does zero vol
            if offset + table.intrinsic.sum() >= 0:
                return 0.0, True
        residual = offset + prices.sum()
        zero_tested = zero_tested or x == 0.0
        if residual >= 0.0:
            if x == 0.0:
                return 0.0, True
            up = x
        else:
            if x == BRACKET_LIMIT:
                return x, True
            lo = x
        if residual == 0.0:
            return x, False
        if zero_first:
            zero_first, x = False, start
            continue
        weights = vol_map.slope(curve, vols) * column
        slope = vegas @ weights
        candidate = lo  # where the slope is not positive, move as a step off the left end
        if slope > 0.0:
            newton = residual / slope
            halley = 1.0 - 0.5 * newton * (vommas @ (weights * column)) / slope
            step = newton / halley if halley > 0.0 else newton
            candidate = x - step
            if abs(step) <= NEWTON_TOL * x:
                return candidate, False
        if candidate <= lo:
            # zero vol is the one point left of the bracket still to test
            candidate = 0.5 * (lo + up) if zero_tested else 0.0
        elif candidate >= up:
            candidate = 0.5 * (lo + up)
        x = min(candidate, BRACKET_LIMIT)
    # not reached by any shipped ladder: the last iterate, whose miss the
    # cap's residual records
    return x, False


def _split_rows(moving):
    """(held, moving) row indexers for a mask of the caplets a node moves.

    Slices when the moving caplets are a contiguous tail, so that the held
    sum and the narrowing to the moving caplets make views; else masks.
    """
    rows = np.flatnonzero(moving)
    if rows.size and rows[0] + rows.size == moving.size:
        return slice(rows[0]), slice(rows[0], None)
    return ~moving, moving


def bootstrap_sequential(schedule, quotes, config=None):
    """Solve node values one quote at a time, each by safeguarded Newton in a bracket.

    Node q is the one-dimensional root matching the model price of cap q,
    with earlier nodes held fixed and the curve restricted to the solved
    nodes. Exact only where that restriction is harmless: at-maturity
    nodes keep each cap inside its own node span, while midpoint nodes
    let later nodes reach back into earlier caps, so the sequential pass
    is approximate there (converged reports the achieved repricing, and
    the global solver refines it; non-flat midpoint families skip the
    pass entirely). Evaluated vols are floored at zero, so when zero vol
    already overprices the cap (negative incremental time value) there is
    no root: the node clamps to zero, the miss is recorded in the
    residuals, and stripping continues (stop_reason 'clamped', else
    'priced'). A cap that BRACKET_LIMIT still underprices clamps its node
    there in the same way.
    """
    config = config or StripConfig()
    if config.placement == "mid" and config.family != "flat":
        raise InputError(
            "midpoint nodes with a non-flat family are not triangular; use the global solver"
        )
    return _bootstrap(Ladder(schedule, quotes), config)


def _bootstrap(ladder, config, nodes_only=False):
    """The sequential bootstrap's StripResult on a Ladder, or with nodes_only
    its node values alone (the global solver's start, on the global call's
    ladder)."""
    quotes, counts, market, times = ladder.quotes, ladder.counts, ladder.market, ladder.times
    taus = ladder.node_times(config.placement)
    vol_map = VolMap.of(config, "bootstrap")
    family, beta, delta = config.family, config.beta, ladder.delta
    local = family not in ("cubic", "hyman")
    if local:
        # on cap q's fixings, the curve through nodes 0..q is the whole
        # ladder's with every later node tied to node q: its column is the
        # sum of W's columns from q on
        weights = basis_matrix(family, taus, times, beta, delta)
        tied = np.cumsum(weights[:, ::-1], axis=1)[:, ::-1]
    else:
        if config.placement != "maturity":
            raise InputError(f"the {family} bootstrap needs at-maturity nodes")
        # at-maturity nodes put cap q's fixings at or before node q, where the
        # Hermite basis of nodes 0..q is the ladder's cut to its first q + 1 columns
        hermite = hermite_basis(taus, times)
    values = np.zeros(len(quotes))
    known_map = np.zeros((0, 0))  # hyman's slope map of the solved nodes
    clamped = []
    for q, rows in enumerate(counts):
        # cap q alone, on the curve fixed + x * column through nodes 0..q
        known = values[:q]
        line = None
        if local:
            fixed, column = weights[:rows, :q] @ known, tied[:rows, q]
        elif family == "cubic":
            prefix = _cubic_prefix(hermite, taus, times[:rows], q)
            fixed, column = prefix[:, :q] @ known, prefix[:, q]
        else:
            known_map = _grow_slope_map(known_map, taus, known)
            line, start = _hyman_line(hermite, taus, times[:rows], known, known_map)
            # zero vol is tested first; node q reaches back through the
            # slopes of nodes q-1 and q only
            fixed, column = line(0.0, slice(None))
        split = _split_rows(column != 0.0) if line is None else (slice(start), slice(start, None))
        # start at the flat vol, the one vol that prices the whole cap
        values[q], at_clamp = _newton_node(
            ladder.table[:rows], fixed, column, market[q], quotes.flat_vols[q], vol_map, split,
            line, zero_first=family == "hyman",
        )
        if at_clamp:
            clamped.append(int(quotes.maturities_months[q]))
    if nodes_only:
        return values
    final = VolCurve(family, taus, values, beta=beta, delta=delta)
    caplet_vols = vol_map(final(times))
    result = ladder.result(
        "bootstrap", taus, values, caplet_vols, config,
        clamped_months=clamped, stop_reason="clamped" if clamped else "priced",
    )
    result.converged = not clamped and result.max_abs_residual_bp <= PRICE_TOL_BP
    return result


def _cubic_prefix(hermite, taus, times, q):
    """basis_matrix("cubic", taus[:q+1], times) for fixings at or before node q.

    There the ladder's Hermite basis (A, B), cut to nodes 0..q, is the one
    of nodes 0..q, so only the slope map of nodes 0..q is built; below
    three nodes the natural cubic is linear, and basis_matrix builds that.
    """
    if q < 2:
        return basis_matrix("cubic", taus[: q + 1], times)
    values_part, slopes_part = (a[: len(times), : q + 1] for a in hermite)
    return values_part + slopes_part @ natural_slope_map(taus[: q + 1])


def _grow_slope_map(slope_map, taus, known):
    """hyman_slopes(taus[:q], known)[1] for q = len(known), from that of
    known[:-1], slope_map. Slope row k reads nodes k-1..k+1, so adding node
    q-1 changes only row q-2, which becomes the interior row of nodes
    q-3..q-1 (the secant row of nodes 0 and 1 at q = 2), and the new last row,
    which is zero: the flat right end."""
    q = len(known)
    grown = np.zeros((q, q))
    grown[: q - 1, : q - 1] = slope_map
    if q >= 2:
        window = max(q - 3, 0)
        grown[q - 2, window:] = hyman_slopes(taus[window:q], known[window:])[1][q - 2 - window]
    return grown


def _hyman_line(hermite, taus, times, known, known_map=None):
    """hyman's curve through nodes 0..q on cap q's fixings `times`, as
    (line, start): line(x, part) gives (fixed, column) at node q's value x
    on the rows `part`, by default those from `start`, the first fixing
    after node q-2; x moves no earlier one.

    The spline is linear in its values on each slope-clamp set, so its
    matrix is A + B @ S(v), with (A, B) the ladder's Hermite basis cut to
    nodes 0..q. Slope rows 0..q-2 are those of the known nodes alone,
    known_map = hyman_slopes(taus[:q], known)[1], which the bootstrap grows
    node by node (_grow_slope_map) and which is built here when not given.
    Only the slope rows of nodes q-1 and q depend on x, and node q-1's
    reads nodes q-2..q, so each call recomputes those two rows on that
    window of nodes.
    """
    q, rows = len(known), len(times)
    if known_map is None:
        known_map = hyman_slopes(taus[:q], known)[1]
    values_part, slopes_part = (a[:rows, : q + 1] for a in hermite)
    slope_map = np.zeros((q + 1, q + 1))
    slope_map[:q, :q] = known_map
    moved, window = max(q - 1, 0), max(q - 2, 0)
    start = np.searchsorted(times, taus[q - 2], side="right") if q >= 2 else 0

    def line(x, part=slice(start, None)):
        window_map = hyman_slopes(taus[window : q + 1], np.append(known[window:], x))[1]
        slope_map[moved:, window:] = window_map[moved - window :]
        matrix = values_part[part] + slopes_part[part] @ slope_map
        return matrix[:, :q] @ known, matrix[:, q]

    return line, start


def strip_global(schedule, quotes, config=None):
    """Fit all node values at once by bounded least squares (scipy's TRF).

    Minimizes the sum of squared relative price errors with the exact
    Jacobian of the evaluation core, starting from the sequential bootstrap
    values. Positivity modes: 'none' (free nodes), 'exp' (nodes
    parameterised as exponentials), 'nonneg' and 'floor' (the nodes bounded
    below at zero or at floor_bp; the evaluated curve is floored there too).
    Two certificates stop the solver early: an iterate that reprices every
    quote within PRICE_TOL_BP, and one whose cost is within FLOOR_GAP
    (relative) of the ladder's arbitrage floor, the least cost any
    non-negative vols reach, so that no further step can gain more.
    iterations counts residual evaluations, at most max_iter; stop_reason
    is 'priced' when the ladder reprices, 'floor' at the floor, else the
    stop test that fired.
    """
    config = config or StripConfig()
    ladder = Ladder(schedule, quotes)
    market = ladder.market
    taus = ladder.node_times(config.placement)
    vol_map = VolMap.of(config)
    core = EvaluationCore(ladder, taus, config, vol_map)

    # linear-family bootstrap start: family-neutral and free of the spline
    # overshoot a same-family start can bake into the frozen directions
    init_family = "flat" if config.family == "flat" else "linear"
    init = _bootstrap(ladder, replace(config, family=init_family), nodes_only=True)
    lower = vol_map.floor if config.positivity in ("nonneg", "floor") else -np.inf
    # under 'exp' the family interpolates log-vols
    x0 = np.log(np.maximum(init, 1e-4)) if vol_map.log else np.maximum(init, lower)

    last = {}
    floor = ladder.floor_cost

    def residuals(x):
        last["x"], last["point"] = x.copy(), core.evaluate(x)
        return (last["point"].cap_prices - market) / market

    def evaluated(x):
        # the Jacobian and each iterate the callback sees are at the point
        # evaluated last, unless the solver's last trial step was rejected
        return last["point"] if np.array_equal(x, last["x"]) else core.evaluate(x)

    def jacobian(x):
        return core.jacobian(evaluated(x)) / market[:, None]

    def certify(intermediate_result):
        # scipy passes the iterate's OptimizeResult to a parameter of this name
        if floor > 0.0 and 2.0 * intermediate_result.cost <= floor * (1.0 + FLOOR_GAP):
            raise StopIteration
        # Ladder.result's repricing test, on the same prices
        model = evaluated(intermediate_result.x).cap_prices
        if np.max(np.abs(ladder.residuals_bp(model))) <= PRICE_TOL_BP:
            raise StopIteration

    # tolerances near round-off: the stop tests fire only once the fit stalls
    fit = least_squares(
        residuals, x0, jac=jacobian, bounds=(lower, np.inf), method="trf", x_scale="jac",
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=config.max_iter, callback=certify,
    )
    vols = evaluated(fit.x).vols
    values = vol_map(fit.x) if vol_map.log else fit.x
    result = ladder.result(
        "global", taus, values, vols, config, iterations=fit.nfev,
        curve_values=fit.x if vol_map.log else None,
    )
    # whichever test stopped the solver, only a repriced ladder has converged
    result.converged = result.max_abs_residual_bp <= PRICE_TOL_BP
    result.stop_reason = "priced" if result.converged else _STOP_TESTS[fit.status]
    return result


def strip_time_value(schedule, quotes, config=None):
    """Strip caplet vols by interpolating cap time values in maturity.

    Cap prices split into intrinsic plus time value; quotes whose time
    value does not increase are removed first (whichever of the offending
    pair sits farther from the line through its neighbours). The kept time
    values, anchored at (0, 0), are interpolated on the caplet payment
    grid with the monotone C2 spline. Non-negative increments between
    consecutive payment times plus the caplet intrinsics give
    arbitrage-free caplet prices, inverted in one array call.
    """
    config = config or StripConfig()
    report = diagnostics.decompose(schedule, quotes)
    keep_tv = list(report.time_value_bp * 1e-4)
    keep_m = list(quotes.maturities_months.astype(float))
    removed = []
    while True:
        bad = next((j for j in range(1, len(keep_tv)) if keep_tv[j] <= keep_tv[j - 1]), None)
        if bad is None:
            break

        def distance(j):
            if 0 < j < len(keep_tv) - 1:
                span = keep_m[j + 1] - keep_m[j - 1]
                line = keep_tv[j - 1] + (keep_tv[j + 1] - keep_tv[j - 1]) * (
                    (keep_m[j] - keep_m[j - 1]) / span
                )
                return abs(keep_tv[j] - line)
            other = 1 if j == 0 else len(keep_tv) - 2
            return abs(keep_tv[j] - keep_tv[other])

        drop = bad - 1 if distance(bad - 1) > distance(bad) else bad
        removed.append(int(keep_m[drop]))
        del keep_tv[drop], keep_m[drop]
    tv = np.array(keep_tv)
    months = np.array(keep_m)
    kept = diagnostics.CapQuoteSet(
        months.astype(int),
        quotes.flat_vols[np.isin(quotes.maturities_months, months.astype(int))],
        quotes.strike,
    )
    ladder = Ladder(schedule, kept)
    n = ladder.counts[-1]

    knot_t = np.concatenate(([0.0], months / 12.0))
    knot_tv = np.concatenate(([0.0], tv))
    tv_at_pay = build_monotone_c2(knot_t, knot_tv)(schedule.pay_times[:n])
    levels = np.maximum.accumulate(np.maximum(tv_at_pay, 0.0))
    targets = ladder.table.intrinsic + np.diff(levels, prepend=0.0)
    caplet_vols = bachelier.implied_vol_vector(
        schedule.forwards[:n], kept.strike, schedule.fixing_times[:n],
        schedule.accruals[:n], schedule.discounts[:n], targets,
    )

    return ladder.result("tv", months / 12.0, tv, caplet_vols, config, removed_months=removed)
