"""Reference evaluators of the vol curve families, written apart from capstrip's.

Each follows its family's definition by the most direct route: flat by
searchsorted indexing, the kernel families as the first node value plus
every node's increment times its ramp, linear by np.interp, cubic by
scipy's natural CubicSpline and hyman by scipy's CubicHermiteSpline on
hyman_slopes' node slopes. Tests hold VolCurve and basis_matrix to them.
cap_price_from_flat_vol prices one cap alone, as diagnostics.cap_prices
prices each cap of a ladder. least_squares_global_fit is the global fit as
scipy's least_squares ran it, which capstrip's own trust-region loop must
match bit for bit.
"""

from dataclasses import replace

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.optimize import least_squares

from capstrip.bachelier import price_vector
from capstrip.stripping import (
    FLOOR_GAP,
    PRICE_TOL_BP,
    EvaluationCore,
    Ladder,
    StripConfig,
    _bootstrap,
)
from capstrip.vol_interpolation import TransitionKernel, hyman_slopes

KERNELS = {
    "flat-linear": TransitionKernel.RECT,
    "flat-smooth": TransitionKernel.SMOOTHSTEP,
    "cosine": TransitionKernel.COSINE,
    "quintic": TransitionKernel.QUINTIC,
}


def family_oracle(family, taus, values, t, beta=1.0, delta=1.0 / 12.0):
    """The family's curve through (taus, values) at times t."""
    taus, values, t = (np.asarray(a, dtype=float) for a in (taus, values, t))
    if family == "flat":
        return values[np.clip(np.searchsorted(taus, t, side="left"), 0, len(taus) - 1)]
    if family in KERNELS:
        # ramp k sits at c = tau_k-1 + delta/2 with half-width beta*delta/2,
        # clipped to its cell; with no width left it is a step at its start
        out = np.full(t.shape, values[0])
        half = 0.5 * beta * delta
        for k in range(1, len(taus)):
            c = taus[k - 1] + 0.5 * delta
            a = max(taus[k - 1], c - half)
            b = min(taus[k], c + half)
            ramp = KERNELS[family].weight((t - a) / (b - a)) if b > a else (t > a).astype(float)
            out = out + (values[k] - values[k - 1]) * ramp
        return out
    if family == "linear" or (family == "cubic" and len(taus) < 3):
        return np.interp(t, taus, values)
    if len(taus) == 1:
        return np.full(t.shape, values[0])
    clamped = np.clip(t, taus[0], taus[-1])
    if family == "cubic":
        return CubicSpline(taus, values, bc_type="natural")(clamped)
    return CubicHermiteSpline(taus, values, hyman_slopes(taus, values)[0])(clamped)


def cap_price_from_flat_vol(schedule, maturity_months, flat_vol, strike):
    """Price of one cap with a single vol applied to all its caplets."""
    n = schedule.caplet_count(maturity_months)
    prices = price_vector(
        schedule.forwards[:n],
        strike,
        schedule.fixing_times[:n],
        schedule.accruals[:n],
        schedule.discounts[:n],
        np.full(n, flat_vol),
    )
    return float(np.sum(prices))


# least_squares status -> the stop test that fired (4: ftol and xtol both; -2:
# the callback's, which stops a repriced ladder too, but that one reads "priced")
LEAST_SQUARES_STOPS = {-2: "floor", 0: "max_nfev", 1: "gtol", 2: "ftol", 3: "xtol", 4: "ftol"}


def least_squares_global_fit(schedule, quotes, config=None):
    """strip_global's StripResult with the fit run by scipy's least_squares
    (trust-region reflective, x_scale='jac'), from the same bootstrap start,
    with the two certificates in a callback that raises StopIteration.
    """
    config = config or StripConfig()
    ladder = Ladder(schedule, quotes)
    market = ladder.market
    taus = ladder.node_times(config.placement)
    core = EvaluationCore(ladder, taus, config)
    vol_map = core.vol_map
    init_family = "flat" if config.family == "flat" else "linear"
    init = _bootstrap(ladder, replace(config, family=init_family), nodes_only=True)
    lower = vol_map.floor if config.positivity in ("nonneg", "floor") else -np.inf
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
        model = evaluated(intermediate_result.x).cap_prices
        if np.max(np.abs(ladder.residuals_bp(model))) <= PRICE_TOL_BP:
            raise StopIteration

    fit = least_squares(
        residuals, x0, jac=jacobian, bounds=(lower, np.inf), method="trf", x_scale="jac",
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=config.max_iter, callback=certify,
    )
    values = vol_map(fit.x) if vol_map.log else fit.x
    result = ladder.result(
        "global", taus, values, evaluated(fit.x).vols, config, iterations=fit.nfev,
        curve_values=fit.x if vol_map.log else None,
    )
    result.converged = result.max_abs_residual_bp <= PRICE_TOL_BP
    result.stop_reason = "priced" if result.converged else LEAST_SQUARES_STOPS[fit.status]
    return result
