"""Stripping engines: time-value interpolation, bootstrap, global solver.

All engines share one evaluation convention: the vol curve is sampled at
the caplet fixing times and mapped to pricing vols by a VolMap before
pricing: floored at zero (or at the positivity floor), so negative node
values (allowed while solving with positivity 'none') price as zero vol,
or exponentiated under 'exp'. The node engines sample the curve through a
CurveBasis, a matrix on the node values built once per solve, and the
global solver differentiates that map exactly (EvaluationCore). Market
cap prices come from the quoted flat vols.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq, least_squares

from . import bachelier, diagnostics
from .term_structures import InputError
from .vol_interpolation import (
    VolCurve,
    build_monotone_c2,
    check_beta,
    hermite_basis,
    hyman_slopes,
)

BRACKET_START = 0.05  # 500 bp
BRACKET_LIMIT = 100.0  # 1e6 bp
LOG_VOL_CAP = 3.0  # exp-mode curves are capped here before exponentiating
PRICE_TOL_BP = 1e-10  # a quote is repriced when its residual is within this
# least_squares status -> the stop test that fired (4: ftol and xtol both)
_STOP_TESTS = {0: "max_nfev", 1: "gtol", 2: "ftol", 3: "xtol", 4: "ftol"}


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

    @property
    def max_abs_residual_bp(self):
        return float(np.max(np.abs(self.residuals_bp)))

    @property
    def max_rel_error(self):
        return float(np.max(np.abs(self.residuals_bp / self.market_prices_bp)))

    @property
    def min_caplet_vol_bp(self):
        return float(np.min(self.caplet_vols)) * 1e4

    @property
    def min_node_bp(self):
        return float(np.min(self.node_values)) * 1e4


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

    def curve_values(self, node_values):
        """The curve's node values behind reported node values (vols)."""
        return np.log(node_values) if self.log else np.asarray(node_values, dtype=float)


def _linear_in_values(family):
    return family != "hyman"


def _sample(config, delta, taus, values, times):
    return VolCurve(config.family, taus, values, beta=config.beta, delta=delta)(times)


class CurveBasis:
    """A vol family sampled at fixed times as a matrix on the node values.

    curve(times) = matrix(v) @ v. Every family but hyman is linear in its
    node values, so its matrix is built once, by evaluating the family on
    unit node vectors. Hyman is a cubic Hermite spline whose slopes are
    linear in the values on each clamp set (hyman_slopes), so its matrix
    A + B @ S(v) is rebuilt per value vector from the fixed Hermite parts.
    """

    def __init__(self, family, taus, times, beta, delta):
        self.taus = np.asarray(taus, dtype=float)
        if _linear_in_values(family):
            self._matrix = np.column_stack(
                [
                    VolCurve(family, self.taus, unit, beta=beta, delta=delta)(times)
                    for unit in np.eye(len(self.taus))
                ]
            )
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


class EvaluationCore:
    """Node values -> vols at the fixings -> cap prices, for one quote ladder.

    counts are the caplet counts of the caps to price; the curve is sampled
    at the first counts[-1] fixings through one CurveBasis.
    """

    def __init__(self, schedule, strike, counts, taus, config, vol_map):
        self.schedule = schedule
        self.strike = strike
        self.counts = counts
        self.vol_map = vol_map
        self.basis = CurveBasis(
            config.family,
            taus,
            schedule.fixing_times[: counts[-1]],
            config.beta,
            schedule.tenor_months / 12.0,
        )

    def evaluate(self, x):
        matrix = self.basis.matrix(x)
        curve = matrix @ x
        vols = self.vol_map(curve)
        cap_prices = _model_cap_prices(self.schedule, self.strike, vols, self.counts)
        return _Point(matrix, curve, vols, cap_prices)

    def jacobian(self, point):
        """d(cap prices)/dx = C diag(vega * dvol/dcurve) W at an evaluated point.

        C sums each cap's caplets; exact wherever the hyman clamp set and
        the vol map's clamps do not switch.
        """
        n = self.counts[-1]
        s = self.schedule
        vega = bachelier.vega_vector(
            s.forwards[:n], self.strike, s.fixing_times[:n], s.accruals[:n], s.discounts[:n],
            point.vols,
        )
        weights = vega * self.vol_map.slope(point.curve, point.vols)
        return np.cumsum(weights[:, None] * point.matrix, axis=0)[self.counts - 1]


def _caplet_counts(schedule, quotes):
    return np.array([schedule.caplet_count(m) for m in quotes.maturities_months])


def _node_times(schedule, quotes, config):
    return place_nodes(quotes.maturities_months, schedule.tenor_months, config.placement)


def _model_cap_prices(schedule, strike, vols, counts):
    prices = bachelier.price_vector(
        schedule.forwards[: counts[-1]],
        strike,
        schedule.fixing_times[: counts[-1]],
        schedule.accruals[: counts[-1]],
        schedule.discounts[: counts[-1]],
        vols,
    )
    cumulative = np.concatenate(([0.0], np.cumsum(prices)))
    return cumulative[counts]


def _finish(method, schedule, quotes, market, taus, values, caplet_vols, config, **kw):
    counts = _caplet_counts(schedule, quotes)
    fixings = schedule.fixing_times[: counts[-1]]
    model = _model_cap_prices(schedule, quotes.strike, caplet_vols, counts)
    return StripResult(
        method=method,
        quote_months=quotes.maturities_months.copy(),
        market_prices_bp=market * 1e4,
        residuals_bp=(model - market) * 1e4,
        node_times=taus,
        node_values=np.asarray(values, dtype=float),
        caplet_times=fixings,
        caplet_vols=caplet_vols,
        config=config,
        **kw,
    )


def bootstrap_sequential(schedule, quotes, config=None):
    """Solve node values one quote at a time (Brent on the full cap price).

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
    'priced').
    """
    config = config or StripConfig()
    if config.placement == "mid" and config.family != "flat":
        raise InputError(
            "midpoint nodes with a non-flat family are not triangular; use the global solver"
        )
    return _bootstrap(schedule, quotes, config)


def _bootstrap(schedule, quotes, config):
    counts = _caplet_counts(schedule, quotes)
    taus = _node_times(schedule, quotes, config)
    market = diagnostics.cap_prices(schedule, quotes)
    vol_map = VolMap.of(config, "bootstrap")
    delta = schedule.tenor_months / 12.0
    values = []
    clamped = []
    for q in range(len(quotes)):
        # cap q alone, on the curve through nodes 0..q
        node_times, times = taus[: q + 1], schedule.fixing_times[: counts[q]]
        if _linear_in_values(config.family):
            # fixed + x * column in the new node's value x
            fixed = _sample(config, delta, node_times, np.append(values, 0.0), times)
            column = _sample(config, delta, node_times, np.eye(q + 1)[q], times)

            def curve(x):
                return fixed + x * column

        else:
            basis = CurveBasis(config.family, node_times, times, config.beta, delta)

            def curve(x):
                return basis(np.append(values, x))

        def cap_price(x):
            vols = vol_map(curve(x))
            return _model_cap_prices(schedule, quotes.strike, vols, counts[q : q + 1])[-1]

        target = market[q]
        if cap_price(0.0) >= target:
            values.append(0.0)
            clamped.append(int(quotes.maturities_months[q]))
            continue
        hi = BRACKET_START
        while cap_price(hi) < target and hi < BRACKET_LIMIT:
            hi *= 2.0
        if cap_price(hi) < target:
            values.append(hi)
            clamped.append(int(quotes.maturities_months[q]))
            continue
        values.append(
            brentq(lambda x: cap_price(x) - target, 0.0, hi, xtol=1e-16, rtol=8.9e-16)
        )
    caplet_vols = vol_map(_sample(config, delta, taus, values, schedule.fixing_times[: counts[-1]]))
    result = _finish(
        "bootstrap",
        schedule,
        quotes,
        market,
        taus,
        values,
        caplet_vols,
        config,
        clamped_months=clamped,
        stop_reason="clamped" if clamped else "priced",
    )
    result.converged = not clamped and result.max_abs_residual_bp <= PRICE_TOL_BP
    return result


def strip_global(schedule, quotes, config=None):
    """Fit all node values at once by bounded least squares (scipy's TRF).

    Minimizes the sum of squared relative price errors with the exact
    Jacobian of the evaluation core, starting from the sequential bootstrap
    values. Positivity modes: 'none' (free nodes), 'exp' (nodes
    parameterised as exponentials), 'nonneg' and 'floor' (the nodes bounded
    below at zero or at floor_bp; the evaluated curve is floored there too).
    iterations counts residual evaluations, at most max_iter; stop_reason
    is 'priced' when the ladder reprices, else the stop test that fired.
    """
    config = config or StripConfig()
    counts = _caplet_counts(schedule, quotes)
    taus = _node_times(schedule, quotes, config)
    market = diagnostics.cap_prices(schedule, quotes)
    vol_map = VolMap.of(config)
    core = EvaluationCore(schedule, quotes.strike, counts, taus, config, vol_map)

    # linear-family bootstrap start: family-neutral and free of the spline
    # overshoot a same-family start can bake into the frozen directions
    init_family = "flat" if config.family == "flat" else "linear"
    init = _bootstrap(schedule, quotes, replace(config, family=init_family)).node_values
    lower = vol_map.floor if config.positivity in ("nonneg", "floor") else -np.inf
    # under 'exp' the family interpolates log-vols
    x0 = np.log(np.maximum(init, 1e-4)) if vol_map.log else np.maximum(init, lower)

    last = {}

    def residuals(x):
        last["x"], last["point"] = x.copy(), core.evaluate(x)
        return (last["point"].cap_prices - market) / market

    def jacobian(x):
        # the solver asks for the Jacobian at the point it evaluated last
        point = last["point"] if np.array_equal(x, last["x"]) else core.evaluate(x)
        return core.jacobian(point) / market[:, None]

    # tolerances near round-off: the stop tests fire only once the fit stalls
    fit = least_squares(
        residuals, x0, jac=jacobian, bounds=(lower, np.inf), method="trf", x_scale="jac",
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=config.max_iter,
    )
    vols = core.evaluate(fit.x).vols
    values = vol_map(fit.x) if vol_map.log else fit.x
    result = _finish(
        "global", schedule, quotes, market, taus, values, vols, config, iterations=fit.nfev
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
    market = diagnostics.cap_prices(schedule, kept)
    n = _caplet_counts(schedule, kept)[-1]

    knot_t = np.concatenate(([0.0], months / 12.0))
    knot_tv = np.concatenate(([0.0], tv))
    tv_at_pay = build_monotone_c2(knot_t, knot_tv)(schedule.pay_times[:n])
    levels = np.maximum.accumulate(np.maximum(tv_at_pay, 0.0))
    forwards, expiries = schedule.forwards[:n], schedule.fixing_times[:n]
    accruals, discounts = schedule.accruals[:n], schedule.discounts[:n]
    intrinsic = bachelier.intrinsic_vector(forwards, kept.strike, accruals, discounts)
    targets = intrinsic + np.diff(levels, prepend=0.0)
    caplet_vols = bachelier.implied_vol_vector(
        forwards, kept.strike, expiries, accruals, discounts, targets
    )

    return _finish(
        "tv",
        schedule,
        kept,
        market,
        months / 12.0,
        tv,
        caplet_vols,
        config,
        removed_months=removed,
    )
