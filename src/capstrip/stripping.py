"""Stripping engines: time-value interpolation, bootstrap, global solver.

The node engines share one evaluation convention: the vol curve is sampled
at the caplet fixing times, as a matrix on the node values built once per
solve, and mapped to pricing vols by a VolMap before pricing. The bootstrap
floors it at zero (ZERO_FLOOR), so that negative values price as zero vol.
The global solver takes the positivity mode: the zero floor, the positivity
floor, or the exponential under 'exp'; it differentiates the map exactly
(_GlobalProblem). Each engine call builds one diagnostics.Ladder, the
market side of its quotes, prices the curve off its caplet table, and
reprices the solved vols against it (_result), which also decides every
engine's converged and stop_reason.
"""

import logging
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack
# brentq is not called here; perfbench/spans.py wraps stripping.brentq by name
from scipy.optimize import brentq  # noqa: F401

from . import diagnostics, trust_region
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
NEWTON_MAX_ITER = 50  # steps per bootstrap node, or passes as the lead; no shipped node takes 10
NEWTON_TOL = 1e-6  # a relative Halley step this small leaves only round-off (its cube)
LADDER_TOL = 1e-8  # a relative Newton step this small leaves only round-off (its square)
# trust_region.solve's status -> the stop test that fired (ftol and xtol both read
# ftol; a certified stop reads floor, or priced where the ladder reprices)
_STOP_TESTS = {
    trust_region.CERTIFIED: "floor", trust_region.MAX_NFEV: "max_nfev", trust_region.GTOL: "gtol",
    trust_region.FTOL: "ftol", trust_region.XTOL: "xtol", trust_region.FTOL_XTOL: "ftol",
}

PLACEMENTS = ("maturity", "mid")  # node placements place_nodes knows

_log = logging.getLogger(__name__)


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
        if self.placement not in PLACEMENTS:
            raise InputError(f"unknown node placement {self.placement!r}")
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
        """The global objective: the sum of squared relative price errors;
        inf past the float range, as a miss far above a tiny price can be."""
        with np.errstate(over="ignore"):
            relative = self.residuals_bp / self.market_prices_bp
            return float(relative @ relative)

    @property
    def gap_to_floor(self):
        """cost - floor_cost: how far the fit is from the best any
        non-negative vols reach; at least 0 up to round-off, nan where the
        floor is (a quote priced at 0), and inf where the cost is."""
        return self.cost - self.floor_cost if math.isfinite(self.floor_cost) else math.nan

    @property
    def max_rel_error(self):
        """The largest |residual| / price: inf or nan where a quote priced at 0 is
        missed or met, and inf past the float range."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return float(np.max(np.abs(self.residuals_bp / self.market_prices_bp)))

    @property
    def min_caplet_vol_bp(self):
        return float(np.min(self.caplet_vols)) * 1e4

    @property
    def min_node_bp(self):
        return float(np.min(self.node_values)) * 1e4


def _reprices(residuals_bp):
    """Whether every quote reprices: each residual within PRICE_TOL_BP."""
    return bool(np.max(np.abs(residuals_bp)) <= PRICE_TOL_BP)


def _result(ladder, method, taus, values, caplet_vols, config, stop, model=None, clamped=(), **kw):
    """The StripResult of these caplet vols, repriced unless model holds their cap prices.

    It has converged when every quote reprices and no node clamped (clamped
    holds the quote rows of the clamped nodes); its stop_reason is then
    'priced', and otherwise the engine's stop.
    """
    if model is None:
        model = ladder.cap_sums(ladder.table.price(caplet_vols))
    residuals_bp = ladder.residuals_bp(model)
    converged = not clamped and _reprices(residuals_bp)
    return StripResult(
        method=method,
        quote_months=ladder.quotes.maturities_months.copy(),
        market_prices_bp=ladder.market * 1e4,
        residuals_bp=residuals_bp,
        node_times=taus,
        node_values=np.asarray(values, dtype=float),
        caplet_times=ladder.times,
        caplet_vols=caplet_vols,
        clamped_months=[int(ladder.quotes.maturities_months[q]) for q in clamped],
        converged=converged,
        stop_reason="priced" if converged else stop,
        config=config,
        floor_cost=ladder.floor_cost,
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


ZERO_FLOOR = VolMap()  # VolMap.of for every engine but global: the zero-floored curve


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


class _Point(NamedTuple):
    matrix: np.ndarray
    curve: np.ndarray
    vols: np.ndarray
    cap_prices: np.ndarray
    vegas: np.ndarray


class _Bracket:
    """One node's safeguards: the sign bracket [lo, up] of its root and the zero test.

    Each residual's sign narrows the bracket. A candidate off its left end
    tests zero vol next if that is untested, else bisects; one past up
    bisects. No iterate goes past BRACKET_LIMIT: a step beyond it, or a
    bisection while up is unset, stops there.
    """

    def __init__(self):
        self.lo, self.up, self.zero_tested = 0.0, math.inf, False

    def settle(self, x, residual):
        """(value, clamped) when the node settles at x, else None.

        It clamps at 0 when zero vol overprices and at BRACKET_LIMIT when
        that still underprices; a zero residual is a root.
        """
        self.zero_tested = self.zero_tested or x == 0.0
        if residual >= 0.0:
            if x == 0.0:
                return 0.0, True
            self.up = x
        else:
            if x == BRACKET_LIMIT:
                return x, True
            self.lo = x
        if residual == 0.0:
            return x, False
        return None

    def keep(self, candidate):
        """The next iterate: candidate, unless it leaves the bracket."""
        if candidate <= self.lo:
            # zero vol is the one point left of the bracket still to test
            candidate = 0.5 * (self.lo + self.up) if self.zero_tested else 0.0
        elif candidate >= self.up:
            candidate = 0.5 * (self.lo + self.up)
        return min(candidate, BRACKET_LIMIT)


def _newton_node(table, fixed, column, target, start, split, line=None):
    """A bootstrap node on the curve fixed + x * column, by safeguarded Newton.

    Returns (x, clamped). table prices the cap's caplets, and split =
    (held, moving) indexes them (_split_rows): moving marks those whose
    vols x can move. The held ones are priced once, at the first iterate,
    and only the moving ones are repriced. Where the line itself depends
    on x (hyman's slope clamps), line(x) re-reads (fixed, column) on the
    moving caplets at each later iterate. Each step is Newton's on the
    exact slope sum(vega * column * dvol/dcurve), with Halley's correction
    from the exact curvature sum(vomma * column^2 * dvol/dcurve) (the zero
    floor is linear off its kink), kept in the node's _Bracket; an iterate
    whose slope is not positive moves as a step off the bracket's left end.
    The node clamps at 0 when zero vol already overprices the cap: seen at
    once when the moving caplets' intrinsic does, else when an iterate
    reaches zero, or first of all with a line (then the second iterate is
    start). It clamps at BRACKET_LIMIT when that still underprices.
    """
    held, moving = split
    offset = -target
    bracket = _Bracket()
    start = min(start, BRACKET_LIMIT)
    x = 0.0 if line is not None else start
    for k in range(NEWTON_MAX_ITER):
        if line is not None and k:
            fixed, column = line(x)
        curve = fixed + x * column
        vols = ZERO_FLOOR(curve)
        prices, vegas, vommas = table.price_greeks(vols)
        if not k:
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
        settled = bracket.settle(x, residual)
        if settled is not None:
            return settled
        if line is not None and not k:
            x = start
            continue
        weights = ZERO_FLOOR.slope(curve, vols) * column
        slope = vegas @ weights
        candidate = bracket.lo
        if slope > 0.0:
            newton = residual / slope
            halley = 1.0 - 0.5 * newton * (vommas @ (weights * column)) / slope
            step = newton / halley if halley > 0.0 else newton
            candidate = x - step
            if abs(step) <= NEWTON_TOL * x:
                return candidate, False
        x = bracket.keep(candidate)
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


class _LocalSystem:
    """A local family's bootstrap equations G_q(v_0..v_q) = market_q, every cap at once.

    Cap q is priced on the curve through nodes 0..q: the ladder's curve
    with every later node tied to node q. Its fixings before heads[q]
    read no later node, so there that curve is the ladder's own, W @ v.
    Its fixings from heads[q] on (midpoint nodes reach back into them)
    are priced again as tail rows, on W's columns 0..q-1 and the sum of
    its columns from q on. matrix stacks W over the tail rows, and table
    prices them. Node q moves cap q's fixings from moves[q] on. G is lower
    triangular in v, and each of its rows rises with its own node.
    """

    def __init__(self, ladder, family, taus, beta):
        weights = basis_matrix(family, taus, ladder.times, beta, ladder.delta)
        counts, self.rows, n = ladder.counts, ladder.counts[-1], len(taus)
        # the last node each fixing reads, which never falls along the fixings
        reach = n - 1 - np.argmax(weights[:, ::-1] != 0.0, axis=1)
        nodes = np.arange(n)
        self.moves = np.minimum(np.searchsorted(reach, nodes, side="left"), counts)
        self.heads = np.minimum(np.searchsorted(reach, nodes, side="right"), counts)
        intrinsic = ladder.running_intrinsic
        self.moving_intrinsic = intrinsic[counts] - intrinsic[self.moves]
        sizes = counts - self.heads
        self.ends = np.cumsum(sizes)
        self.begins = self.ends - sizes
        # the cap whose sum first takes each fixing of W (every later cap's
        # does too), and the one cap that owns each tail row
        owner = np.repeat(nodes, sizes)
        first_cap = np.concatenate(
            (np.searchsorted(self.heads, np.arange(self.rows), side="right"), owner)
        )
        if not self.ends[-1]:
            self.matrix, self.table = weights, ladder.table
        else:
            tail_rows = np.arange(self.ends[-1]) + np.repeat(self.heads - self.begins, sizes)
            tied = np.cumsum(weights[tail_rows, ::-1], axis=1)[:, ::-1]
            tail = weights[tail_rows] * (nodes < owner[:, None])
            tail[np.arange(len(owner)), owner] = tied[np.arange(len(owner)), owner]
            self.matrix = np.vstack((weights, tail))
            self.table = ladder.table[np.concatenate((np.arange(self.rows), tail_rows))]
        # the matrix's nonzeros, each with its slot in the Jacobian's (cap, node)
        # sums: W's in the first n x n block, cumulated over caps, the tail's after
        self._rows_nz, nodes_nz = np.nonzero(self.matrix != 0.0)
        self._values_nz = self.matrix[self._rows_nz, nodes_nz]
        tail_nz = self._rows_nz >= self.rows
        self._slots_nz = (tail_nz * n + first_cap[self._rows_nz]) * n + nodes_nz

    def _sums(self, caplet_prices):
        """(each cap's sum of caplet_prices over its own rows, the running
        sums over W's rows from 0)."""
        running = diagnostics._running_sums(caplet_prices[: self.rows])
        sums = running[self.heads]
        if self.ends[-1]:
            tail = diagnostics._running_sums(caplet_prices[self.rows :])
            sums += tail[self.ends] - tail[self.begins]
        return sums, running

    def evaluate(self, values):
        """(G(v), least, dG/dv) in one price_vega pass.

        least[q] is the least price node q can give cap q: no vol prices
        below intrinsic. The Jacobian is exact off the zero floor's kink,
        in _GlobalProblem.jacobian's cumulative-sum form over the caps,
        summed from the matrix's nonzeros alone.
        """
        curve = self.matrix @ values
        vols = ZERO_FLOOR(curve)
        prices, vegas = self.table.price_vega(vols)
        model, running = self._sums(prices)
        least = running[self.moves] + self.moving_intrinsic
        weights = (vegas * ZERO_FLOOR.slope(curve, vols))[self._rows_nz] * self._values_nz
        n = len(model)
        main, tail = np.bincount(self._slots_nz, weights, 2 * n * n).reshape(2, n, n)
        return model, least, np.cumsum(main, axis=0) + tail


def _solve_local(system, market, starts):
    """Every node of a _LocalSystem by Newton on the whole ladder: (values, clamped).

    Each pass evaluates G and its Jacobian once and steps the unsettled
    nodes by one triangular solve. Nodes settle in order. The lead, the
    first unsettled node, has its earlier nodes settled at the values
    evaluated, so its residual is its own 1-D problem's: it steps in its
    _Bracket and settles as a node solve does, at 0 when no vol underprices
    its cap (least), at a clamp of the bracket, at a root, or after
    NEWTON_MAX_ITER passes; a lead that settles where it stands passes the
    lead on within the pass. Once the lead settles, each next node whose
    step is within LADDER_TOL settles too: its residual is predicted to
    first order from the earlier steps. Other nodes take their Newton step,
    cut to [0, BRACKET_LIMIT], or hold where their slope is not positive.
    """
    n = len(market)
    values = np.minimum(starts, BRACKET_LIMIT)
    clamped = []
    lead, bracket, lead_passes = 0, _Bracket(), 0
    while lead < n:
        model, least, jacobian = system.evaluate(values)
        residuals = model - market
        steps = np.zeros(n)
        first, settling = lead, True
        while lead < n:
            x, residual, slope = values[lead], residuals[lead], jacobian[lead, lead]
            lead_passes += 1
            settled = (0.0, True) if least[lead] >= market[lead] else bracket.settle(x, residual)
            if settled is None:
                # where the slope is not positive, step off the bracket's left end
                step = residual / slope if slope > 0.0 else x - bracket.lo
                if slope > 0.0 and abs(step) < LADDER_TOL * x:
                    settled = x - step, False
                elif lead_passes < NEWTON_MAX_ITER:
                    steps[lead], settling = bracket.keep(x - step) - x, False
                    break
                else:
                    # not reached by any shipped ladder: the cap's residual records the miss
                    settled = bracket.keep(x - step), False
            value, at_clamp = settled
            steps[lead] = value - x
            if at_clamp:
                clamped.append(lead)
            lead, bracket, lead_passes = lead + 1, _Bracket(), 0
            if value != x:
                break
        # the nodes after: one triangular solve, redone past each node a
        # bound cuts, so that every later step sees the steps taken before it
        start = lead if settling else lead + 1
        while start < n:
            block = jacobian[start:, start:]
            rhs = -(residuals[start:] + jacobian[start:, first:start] @ steps[first:start])
            # a node at 0 that zero vol overprices holds, as its cut step would
            x = values[start:]
            held = ~(np.diagonal(block) > 0.0) | ((x == 0.0) & (rhs <= 0.0))
            if held.any():
                block = block.copy()
                block[held], rhs[held] = 0.0, 0.0
                block[held, held] = 1.0
            delta = lapack.dtrtrs(block, rhs, lower=1)[0]
            target = x + delta
            if settling:
                # settled steps stay inside the bounds, so none of them is cut
                small = ~held & (np.abs(delta) < LADDER_TOL * x) & (target < BRACKET_LIMIT)
                lead += len(small) if small.all() else int(np.argmin(small))
                settling = False
            kept = np.minimum(np.maximum(target, 0.0), BRACKET_LIMIT)
            cut = np.flatnonzero(kept != target)
            end = cut[0] + 1 if cut.size else len(kept)
            steps[start : start + end] = kept[:end] - x[:end]
            start += end
        values = values + steps
    return values, clamped


def bootstrap_sequential(schedule, quotes, config=None):
    """Solve node values quote by quote: node q reprices cap q given nodes 0..q-1.

    Node q is the one-dimensional root matching the model price of cap q,
    with earlier nodes held fixed and the curve restricted to the solved
    nodes (_bootstrap solves the local families' nodes all at once, and
    cubic's and hyman's one at a time, to the same roots). Exact only
    where that restriction is harmless: at-maturity
    nodes keep each cap inside its own node span, while midpoint nodes
    let later nodes reach back into earlier caps, so the sequential pass
    is approximate there (converged reports the achieved repricing, and
    the global solver refines it; non-flat midpoint families skip the
    pass entirely). Evaluated vols are floored at zero, so when zero vol
    already overprices the cap (negative incremental time value) there is
    no root: the node clamps to zero, the miss is recorded in the
    residuals, and stripping continues. A cap that BRACKET_LIMIT still
    underprices clamps its node there in the same way. stop_reason is
    'priced' exactly when the ladder reprices and no node clamped
    (converged; _result), 'clamped' when a node clamped, and otherwise
    'approximate': the midpoint pass, or a node solve that ran out of steps.
    """
    config = config or StripConfig()
    if config.placement == "mid" and config.family != "flat":
        raise InputError(
            "midpoint nodes with a non-flat family are not triangular; use the global solver"
        )
    return _bootstrap(diagnostics.Ladder(schedule, quotes), config)


def _bootstrap(ladder, config, nodes_only=False):
    """The sequential bootstrap's StripResult on a Ladder, or with nodes_only
    its node values alone (the global solver's start, on the global call's
    ladder).

    Node q solves cap q on the curve through nodes 0..q, the nodes before
    it solved. For the local families (all but cubic and hyman) that curve
    is the ladder's with every later node tied to node q, so cap q's price
    is a function of nodes 0..q alone that never falls as a node rises: the
    equations form one lower-triangular system, solved for every node at
    once by Newton on the whole ladder (_solve_local), a few kernel passes
    in all. cubic and hyman solve node by node (_newton_node): their
    slopes reach across nodes, so that cap q is not monotone in node q,
    and each node's root is taken as its own safeguarded 1-D solve.
    """
    quotes, times = ladder.quotes, ladder.times
    taus = place_nodes(quotes.maturities_months, ladder.tenor_months, config.placement)
    family, beta, delta = config.family, config.beta, ladder.delta
    if family not in ("cubic", "hyman"):
        system = _LocalSystem(ladder, family, taus, beta)
        # start every node at its cap's flat vol, the one vol that prices the whole cap
        values, clamped = _solve_local(system, ladder.market, quotes.flat_vols)
    else:
        values, clamped = _bootstrap_by_node(ladder, config, taus)
    if nodes_only:
        return values
    final = VolCurve(family, taus, values, beta=beta, delta=delta)
    caplet_vols = ZERO_FLOOR(final(times))
    stop = "clamped" if clamped else "approximate"
    return _result(ladder, "bootstrap", taus, values, caplet_vols, config, stop, clamped=clamped)


def _bootstrap_by_node(ladder, config, taus):
    """cubic's and hyman's nodes, one _newton_node solve each: (values, clamped)."""
    quotes, market, times = ladder.quotes, ladder.market, ladder.times
    family = config.family
    if config.placement != "maturity":
        raise InputError(f"the {family} bootstrap needs at-maturity nodes")
    # at-maturity nodes put cap q's fixings at or before node q, where the
    # Hermite basis of nodes 0..q is the ladder's cut to its first q + 1 columns
    hermite = hermite_basis(taus, times)
    values = np.zeros(len(quotes))
    known_map = np.zeros((0, 0))  # hyman's slope map of the solved nodes
    clamped = []
    for q, rows in enumerate(ladder.counts):
        # cap q alone, on the curve fixed + x * column through nodes 0..q
        known = values[:q]
        line = None
        if family == "cubic":
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
            ladder.table[:rows], fixed, column, market[q], quotes.flat_vols[q], split, line
        )
        if at_clamp:
            clamped.append(q)
    return values, clamped


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


def _hyman_line(hermite, taus, times, known, known_map):
    """hyman's curve through nodes 0..q on cap q's fixings `times`, as
    (line, start): line(x, part) gives (fixed, column) at node q's value x
    on the rows `part`, by default those from `start`, the first fixing
    after node q-2; x moves no earlier one.

    The spline is linear in its values on each slope-clamp set, so its
    matrix is A + B @ S(v), with (A, B) the ladder's Hermite basis cut to
    nodes 0..q. Slope rows 0..q-2 are those of the known nodes alone,
    known_map = hyman_slopes(taus[:q], known)[1], which the bootstrap grows
    node by node (_grow_slope_map).
    Only the slope rows of nodes q-1 and q depend on x, and node q-1's
    reads nodes q-2..q, so each call recomputes those two rows on that
    window of nodes.
    """
    q, rows = len(known), len(times)
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


class _GlobalProblem:
    """The global fit's problem on one Ladder, stated once for any loop.

    The start is the linear-family bootstrap (flat for flat): family-neutral
    and free of the spline overshoot a same-family start can bake into the
    frozen directions; under 'exp' the family interpolates log-vols.
    residuals(x) gives the relative price errors of the curve on the nodes,
    sampled at the fixings through a CurveBasis and mapped by the VolMap,
    and the point evaluated; jacobian(point) their exact derivative.
    certified(point, cost) holds once the iterate reprices every quote, or
    its cost is within FLOOR_GAP (relative) of the ladder's arbitrage
    floor, the least cost any non-negative vols reach. A quote priced at 0
    has no relative error, so a ladder with one raises InputError.
    """

    def __init__(self, ladder, config):
        market, quotes = ladder.market, ladder.quotes
        if np.any(market <= 0.0):
            months = ", ".join(f"{m}M" for m in quotes.maturities_months[market <= 0.0])
            raise InputError(
                "the global solver fits relative price errors, which quotes priced at 0 "
                f"lack: {months}"
            )
        self.ladder, self.config = ladder, config
        self.taus = place_nodes(quotes.maturities_months, ladder.tenor_months, config.placement)
        vol_map = self.vol_map = VolMap.of(config)
        self.basis = CurveBasis(config.family, self.taus, ladder.times, config.beta, ladder.delta)
        init_family = "flat" if config.family == "flat" else "linear"
        init = _bootstrap(ladder, replace(config, family=init_family), nodes_only=True)
        self.lower = vol_map.floor if config.positivity in ("nonneg", "floor") else -np.inf
        self.x0 = np.log(np.maximum(init, 1e-4)) if vol_map.log else np.maximum(init, self.lower)

    def residuals(self, x):
        matrix = self.basis.matrix(x)
        curve = matrix @ x
        vols = self.vol_map(curve)
        prices, vegas = self.ladder.table.price_vega(vols)
        point = _Point(matrix, curve, vols, self.ladder.cap_sums(prices), vegas)
        market = self.ladder.market
        return (point.cap_prices - market) / market, point

    def jacobian(self, point):
        """C diag(vega * dvol/dcurve) W / market at an evaluated point, C
        summing each cap's caplets: exact wherever the hyman clamp set and
        the vol map's clamps do not switch. Nothing is priced here."""
        weights = point.vegas * self.vol_map.slope(point.curve, point.vols)
        cap_jacobian = np.cumsum(weights[:, None] * point.matrix, axis=0)[self.ladder.counts - 1]
        return cap_jacobian / self.ladder.market[:, None]

    def certified(self, point, cost):
        floor = self.ladder.floor_cost
        if floor > 0.0 and 2.0 * cost <= floor * (1.0 + FLOOR_GAP):
            return True
        return _reprices(self.ladder.residuals_bp(point.cap_prices))

    def result(self, x, point, nfev, status):
        """The StripResult at x, evaluated at point, after nfev evaluations
        and the stop status (numbered as trust_region and least_squares
        number them)."""
        log = self.vol_map.log
        return _result(
            self.ladder, "global", self.taus, self.vol_map(x) if log else x, point.vols,
            self.config, _STOP_TESTS[status], model=point.cap_prices, iterations=nfev,
            curve_values=x if log else None,
        )


def strip_global(schedule, quotes, config=None):
    """Fit all node values at once by bounded least squares.

    Minimizes the sum of squared relative price errors (_GlobalProblem)
    with their exact Jacobian, from the sequential
    bootstrap values, by trust_region.solve (scipy's least_squares TRF,
    step for step). Positivity modes: 'none' (free nodes), 'exp' (nodes
    parameterised as exponentials), 'nonneg' and 'floor' (the nodes bounded
    below at zero or at floor_bp; the evaluated curve is floored there too).
    The problem's certificate stops the solver early, at a repriced ladder
    or at the arbitrage floor, where no further step can gain more.
    iterations counts residual evaluations, at most max_iter; stop_reason
    is 'priced' when the ladder reprices, 'floor' at the floor, else the
    stop test that fired. A ladder with a quote priced at 0 (zero flat vol
    out of the money, or a price that underflows) raises InputError; so
    does a start whose relative errors or Jacobian square past the float
    range. At DEBUG the fit logs each residual evaluation and its stop
    (_trace_evaluation).
    """
    config = config or StripConfig()
    problem = _GlobalProblem(diagnostics.Ladder(schedule, quotes), config)
    tracing = _log.isEnabledFor(logging.DEBUG)
    try:
        fit = trust_region.solve(
            problem.residuals, problem.jacobian, problem.x0, config.max_iter,
            lower=problem.lower, certified=problem.certified,
            trace=_trace_evaluation if tracing else None,
        )
    except trust_region.StartNotFinite as exc:
        months = ", ".join(f"{m}M" for m in quotes.maturities_months[exc.rows])
        raise InputError(
            "the global solver's start misses quotes by more than the float range "
            f"of their relative errors: {months}"
        ) from None
    result = problem.result(fit.x, fit.point, fit.nfev, fit.status)
    if tracing:
        _log.debug(
            "global stop: %s after %d evaluations, gap to floor %.6g",
            result.stop_reason, result.iterations, result.gap_to_floor,
        )
    return result


def _trace_evaluation(nfev, half_cost, step_norm, radius, accepted):
    """One DEBUG record per residual evaluation of the global fit, its cost
    as StripResult.cost counts it (the solver's is half of that)."""
    _log.debug(
        "global evaluation %d: cost %.17g, step %.6g, radius %.6g, %s",
        nfev, 2.0 * half_cost, step_norm, radius, "accepted" if accepted else "rejected",
    )


def strip_time_value(schedule, quotes, config=None):
    """Strip caplet vols by interpolating cap time values in maturity.

    Cap prices split into intrinsic plus time value; quotes whose time
    value does not increase are removed first (whichever of the offending
    pair sits farther from the line through its neighbours). The kept time
    values, anchored at (0, 0), are interpolated on the caplet payment
    grid with the monotone C2 spline. Non-negative increments between
    consecutive payment times plus the caplet intrinsics give
    arbitrage-free caplet prices, inverted in one array call on the
    ladder's caplet table. A kept caplet whose discount factor underflows
    to 0 has no vol to invert for, and raises InputError. A kept quote that
    does not reprice stops the result as 'approximate' (_result).
    """
    config = config or StripConfig()
    ladder = diagnostics.Ladder(schedule, quotes)
    # decompose's time values, through its round trip in bp
    keep_tv = list((ladder.market - ladder.intrinsic) * 1e4 * 1e-4)
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
    ladder = ladder[~np.isin(quotes.maturities_months, removed)]
    table = ladder.table
    unpriced = np.flatnonzero(table.base == 0.0)
    if unpriced.size:
        # such a caplet prices at 0 at every vol, so no vol inverts its price
        caps = ladder.quotes.maturities_months[ladder.counts > unpriced[0]]
        raise InputError(
            "the tv engine cannot invert caplets whose discount factor underflows to 0, "
            f"in the caps of: {', '.join(f'{m}M' for m in caps)}"
        )

    knot_t = np.concatenate(([0.0], ladder.quotes.maturities_months / 12.0))
    knot_tv = np.concatenate(([0.0], keep_tv))
    tv_at_pay = build_monotone_c2(knot_t, knot_tv)(schedule.pay_times[: ladder.counts[-1]])
    levels = np.maximum.accumulate(np.maximum(tv_at_pay, 0.0))
    targets = table.intrinsic + np.diff(levels, prepend=0.0)
    caplet_vols = table.implied_vols(targets)
    return _result(
        ladder, "tv", knot_t[1:], keep_tv, caplet_vols, config, "approximate",
        removed_months=removed,
    )
