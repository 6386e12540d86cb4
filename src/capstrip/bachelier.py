"""Caplet pricing and implied volatility under the normal (Bachelier) model.

A caplet on forward F with strike K, fixing time t, accrual delta and
discount factor B is worth

    V = B * delta * (s * phi(d) + (F - K) * Phi(d)),   s = sigma * sqrt(t),
    d = (F - K) / s,

with the intrinsic value B * delta * max(F - K, 0) as the sigma -> 0 limit.
Internally the price is assembled as intrinsic plus time value, with the
time value in the scaled form

    tv = B * delta * s * exp(-q^2/2) * (1/sqrt(2*pi) - (q/2) * erfcx(q/sqrt(2))),
    q = |F - K| / s,

which stays accurate through the far tails where phi and Phi underflow
and their difference loses all precision. Vols are absolute (normal)
and non-negative.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / _SQRT_2PI
_SQRT_2 = math.sqrt(2.0)
_BRACKET_DOUBLINGS = 200
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class CapletQuoteInputs:
    """Static caplet terms: everything but the volatility."""

    forward: float
    strike: float
    expiry: float
    accrual: float
    discount: float


class NegativeTimeValueError(ValueError):
    """Target price below intrinsic: no non-negative vol can reproduce it."""

    def __init__(self, deficit):
        super().__init__(f"target price is {deficit:.6e} below intrinsic value")
        self.deficit = deficit


def _phi(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _time_value_core(s, abs_moneyness):
    """Time value divided by B*delta, for s = vol * sqrt(t) > 0.

    The bracket below equals exp(q^2/2) * (phi(q) - q * Phi(-q)); its
    cancellation bottoms out around 1e-13 relative at the edge of the
    representable tail (q ~ 38), where phi and Phi individually
    underflow and the naive difference turns into garbage.
    """
    with np.errstate(over="ignore"):
        # subnormal s overflows q; cap it where exp(-q^2/2) is 0 anyway
        q = np.minimum(abs_moneyness / s, 1e9)
    bracket = _INV_SQRT_2PI - 0.5 * q * erfcx(q / _SQRT_2)
    return s * np.exp(-0.5 * q * q) * bracket


def price_vector(forwards, strike, expiries, accruals, discounts, vols, clamp=False):
    """Vectorized caplet prices; vols at or below zero price as intrinsic.

    clamp=True floors the vols at zero first (engine evaluation mode);
    otherwise non-positive vols simply hit the intrinsic branch.
    """
    sig = np.maximum(vols, 0.0) if clamp else np.asarray(vols, dtype=float)
    base = discounts * accruals
    moneyness = forwards - strike
    s = sig * np.sqrt(expiries)
    live = s > 0.0
    s_safe = np.where(live, s, 1.0)
    tv = np.where(live, _time_value_core(s_safe, np.abs(moneyness)), 0.0)
    return base * (np.maximum(moneyness, 0.0) + tv)


def vega_vector(forwards, strike, expiries, accruals, discounts, vols):
    """Vectorized d(price)/d(vol) for non-negative vols.

    At zero vol this is the one-sided limit: the ATM value, zero elsewhere.
    """
    root_t = np.sqrt(expiries)
    s = vols * root_t
    moneyness = forwards - strike
    live = s > 0.0
    with np.errstate(over="ignore"):
        d = np.where(live, moneyness / np.where(live, s, 1.0), np.where(moneyness == 0.0, 0.0, np.inf))
        return discounts * accruals * root_t * _phi(d)


def intrinsic_vector(forwards, strike, accruals, discounts):
    return discounts * accruals * np.maximum(forwards - strike, 0.0)


def price(inputs, vol):
    """Single caplet price. Requires vol >= 0."""
    if vol < 0.0:
        raise ValueError("vol must be non-negative")
    return float(
        price_vector(
            inputs.forward,
            inputs.strike,
            inputs.expiry,
            inputs.accrual,
            inputs.discount,
            vol,
        )
    )


def time_value(inputs, vol):
    """Price minus intrinsic, floored at zero against roundoff."""
    intrinsic = inputs.discount * inputs.accrual * max(inputs.forward - inputs.strike, 0.0)
    return max(price(inputs, vol) - intrinsic, 0.0)


def vega(inputs, vol):
    if vol < 0.0:
        raise ValueError("vol must be non-negative")
    return float(
        vega_vector(
            inputs.forward,
            inputs.strike,
            inputs.expiry,
            inputs.accrual,
            inputs.discount,
            vol,
        )
    )


def implied_vol(inputs, target_price):
    """Invert one caplet price for the normal vol; see implied_vol_vector."""
    return float(
        implied_vol_vector(
            [inputs.forward],
            inputs.strike,
            [inputs.expiry],
            [inputs.accrual],
            [inputs.discount],
            [target_price],
        )[0]
    )


def implied_vol_vector(forwards, strike, expiries, accruals, discounts, targets):
    """Invert caplet prices (1-d arrays, one strike) for their normal vols.

    Works on the time value, whose scaled closed form avoids the
    cancellation against intrinsic that kills the in-the-money tail.
    Safeguarded Newton on the log residual, with bisection in log vol
    whenever the step leaves the bracket, so convergence stays fast even
    where the target spans hundreds of orders of magnitude out of the
    money. Every element runs its own iteration; finished elements drop
    out of the active set. Recovers each vol as sharply as the float64
    price mapping allows. Raises NegativeTimeValueError when a target is
    below intrinsic; returns 0 at intrinsic.
    """
    forwards, expiries, accruals, discounts, targets = (
        np.asarray(a, dtype=float) for a in (forwards, expiries, accruals, discounts, targets)
    )
    base = discounts * accruals
    if np.any(base <= 0.0) or np.any(expiries <= 0.0):
        raise ValueError("need positive discount, accrual and expiry")
    moneyness = forwards - strike
    intrinsic = base * np.maximum(moneyness, 0.0)
    scale = np.maximum(np.maximum(np.abs(targets), intrinsic), 1e-300)
    below = targets < intrinsic - 1e-14 * scale
    if np.any(below):
        raise NegativeTimeValueError(float((intrinsic - targets)[below][0]))

    vols = np.zeros(len(targets))
    root_t = np.sqrt(expiries)
    live = targets > intrinsic
    atm = live & (moneyness == 0.0)
    vols[atm] = targets[atm] * _SQRT_2PI / (base[atm] * root_t[atm])
    solve = np.flatnonzero(live & ~atm)
    vols[solve] = _newton(
        forwards[solve], strike, expiries[solve], accruals[solve], discounts[solve],
        targets[solve] - intrinsic[solve],
    )
    return vols


def _newton(forwards, strike, expiries, accruals, discounts, target_tv):
    """implied_vol_vector away from the money, for time values target_tv > 0."""
    base = discounts * accruals
    root_t = np.sqrt(expiries)
    abs_m = np.abs(forwards - strike)
    log_target = np.log(target_tv)

    def time_value_of(sigma, k):
        return base[k] * _time_value_core(sigma * root_t[k], abs_m[k])

    # the ATM time value majorizes every other moneyness at equal vol,
    # so the ATM inversion is a lower bound for the root
    lo = target_tv * _SQRT_2PI / (base * root_t)
    hi = np.maximum(2.0 * lo, 1e-4)
    short = np.arange(len(target_tv))
    for _ in range(_BRACKET_DOUBLINGS):
        short = short[time_value_of(hi[short], short) < target_tv[short]]
        if short.size == 0:
            break
        lo[short] = hi[short]
        hi[short] *= 2.0
    else:
        raise ValueError("implied vol bracket expansion failed")

    sigma = np.sqrt(lo * hi)
    k = np.arange(len(target_tv))
    for _ in range(_NEWTON_MAX_ITER):
        s = sigma[k]
        tv_val = time_value_of(s, k)
        above = tv_val > target_tv[k]
        hi[k] = np.where(above, s, hi[k])
        lo[k] = np.where(above, lo[k], s)
        slope = vega_vector(forwards[k], strike, expiries[k], accruals[k], discounts[k], s)
        # where the time value underflowed, sigma is far below the root: bisect
        newton = (tv_val > 0.0) & (slope > 0.0)
        safe_tv = np.where(newton, tv_val, 1.0)
        step = np.where(
            newton, (np.log(safe_tv) - log_target[k]) * safe_tv / np.where(newton, slope, 1.0), np.inf
        )
        midpoint = np.sqrt(lo[k] * hi[k])
        candidate = np.where(newton, s - step, midpoint)
        candidate = np.where((lo[k] < candidate) & (candidate < hi[k]), candidate, midpoint)
        done = (tv_val == target_tv[k]) | (np.abs(step) <= 1e-15 * s) | (candidate == s)
        sigma[k] = np.where(done, s, candidate)
        k = k[~done]
        if k.size == 0:
            break
    return sigma
