"""Reference evaluators of the vol curve families, written apart from capstrip's.

Each follows its family's definition by the most direct route: flat by
searchsorted indexing, the kernel families as the first node value plus
every node's increment times its ramp, linear by np.interp, cubic by
scipy's natural CubicSpline and hyman by scipy's CubicHermiteSpline on
hyman_slopes' node slopes. Tests hold VolCurve and basis_matrix to them.
intrinsic_vector gives caplet intrinsic values, B * delta * max(F - K, 0),
as bachelier.CapletTable holds them. cap_price_from_flat_vol prices one
cap alone, as diagnostics.cap_prices prices each cap of a ladder, and
flat_vol_oracle inverts that price by the benchmark's recipe
(perfbench/reference.py: flat_vol).
least_squares_global_fit runs strip_global's one problem through
scipy's least_squares, which capstrip's own trust-region loop must match
bit for bit.
"""

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.optimize import brentq, least_squares

from capstrip.bachelier import price_vector
from capstrip.diagnostics import Ladder
from capstrip.stripping import StripConfig, _GlobalProblem
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


def intrinsic_vector(forwards, strike, accruals, discounts):
    return discounts * accruals * np.maximum(forwards - strike, 0.0)


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


def flat_vol_oracle(schedule, maturity_months, price, strike):
    """The flat vol that prices one cap at price: Brent on a bracket from 0
    whose top doubles from 1% until it prices above the target. A price
    not above the zero-vol price has no flat vol (ValueError)."""

    def miss(vol):
        return cap_price_from_flat_vol(schedule, maturity_months, vol, strike) - price

    if not miss(0.0) < 0.0:
        raise ValueError("target is not above the cap's intrinsic value")
    top = 0.01
    while miss(top) < 0.0:
        top *= 2.0
    return brentq(miss, 0.0, top, xtol=1e-18, rtol=8.9e-16)


def least_squares_global_fit(schedule, quotes, config=None):
    """strip_global's StripResult with its problem (stripping._GlobalProblem)
    run by scipy's least_squares (trust-region reflective, x_scale='jac'),
    its certificate in a callback that raises StopIteration.
    """
    config = config or StripConfig()
    problem = _GlobalProblem(Ladder(schedule, quotes), config)
    last = {}

    def residuals(x):
        f, last["point"] = problem.residuals(x)
        last["x"] = x.copy()
        return f

    def evaluated(x):
        # the Jacobian and each iterate the callback sees are at the point
        # evaluated last, unless the solver's last trial step was rejected
        return last["point"] if np.array_equal(x, last["x"]) else problem.residuals(x)[1]

    def certify(intermediate_result):
        # scipy passes the iterate's OptimizeResult to a parameter of this name
        if problem.certified(evaluated(intermediate_result.x), intermediate_result.cost):
            raise StopIteration

    fit = least_squares(
        residuals, problem.x0, jac=lambda x: problem.jacobian(evaluated(x)),
        bounds=(problem.lower, np.inf), method="trf", x_scale="jac",
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=config.max_iter, callback=certify,
    )
    return problem.result(fit.x, evaluated(fit.x), fit.nfev, fit.status)
