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
    root_t = math.sqrt(inputs.expiry)
    s = vol * root_t
    if s <= 0.0:
        # limit only finite at the money
        return inputs.discount * inputs.accrual * root_t / _SQRT_2PI \
            if inputs.forward == inputs.strike else 0.0
    d = (inputs.forward - inputs.strike) / s
    return inputs.discount * inputs.accrual * root_t * float(_phi(d))


def implied_vol(inputs, target_price, max_iter=100):
    """Invert the caplet price for the normal vol.

    Works on the time value, whose scaled closed form avoids the
    cancellation against intrinsic that kills the in-the-money tail.
    Safeguarded Newton on the log residual, with bisection in log vol
    whenever the step leaves the bracket, so convergence stays fast even
    where the target spans hundreds of orders of magnitude out of the
    money. Recovers the vol as sharply as the float64 price mapping
    allows. Raises NegativeTimeValueError when the target is below
    intrinsic; returns 0 at intrinsic.
    """
    base = inputs.discount * inputs.accrual
    if base <= 0.0 or inputs.expiry <= 0.0:
        raise ValueError("need positive discount, accrual and expiry")
    intrinsic = base * max(inputs.forward - inputs.strike, 0.0)
    scale = max(abs(target_price), intrinsic, 1e-300)
    if target_price < intrinsic - 1e-14 * scale:
        raise NegativeTimeValueError(intrinsic - target_price)
    if target_price <= intrinsic:
        return 0.0

    root_t = math.sqrt(inputs.expiry)
    if inputs.forward == inputs.strike:
        return target_price * _SQRT_2PI / (base * root_t)

    abs_m = abs(inputs.forward - inputs.strike)
    target_tv = target_price - intrinsic
    log_target = math.log(target_tv)

    def time_value_of(sigma):
        return base * float(_time_value_core(sigma * root_t, abs_m))

    # the ATM time value majorizes every other moneyness at equal vol,
    # so the ATM inversion is a lower bound for the root
    sigma_atm = target_tv * _SQRT_2PI / (base * root_t)
    lo = sigma_atm
    hi = max(2.0 * sigma_atm, 1e-4)
    for _ in range(200):
        if time_value_of(hi) >= target_tv:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ValueError("implied vol bracket expansion failed")

    sigma = math.sqrt(lo * hi)
    for _ in range(max_iter):
        tv_val = time_value_of(sigma)
        if tv_val == target_tv:
            return sigma
        if tv_val > target_tv:
            hi = sigma
        else:
            lo = sigma
        slope = vega(inputs, sigma)
        if tv_val > 0.0 and slope > 0.0:
            step = (math.log(tv_val) - log_target) * tv_val / slope
            candidate = sigma - step
        else:
            # time value underflowed: sigma is far below the root
            step = math.inf
            candidate = math.sqrt(lo * hi)
        if abs(step) <= 1e-15 * sigma:
            return sigma
        if not lo < candidate < hi:
            candidate = math.sqrt(lo * hi)
        if candidate == sigma:
            return sigma
        sigma = candidate
    return sigma
