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
_TINY = np.finfo(float).tiny  # the smallest positive normal float
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


def _time_value(s, q, decay):
    """Time value divided by B*delta, for s = vol * sqrt(t) > 0 and decay = exp(-q^2/2).

    The bracket below equals exp(q^2/2) * (phi(q) - q * Phi(-q)); its
    cancellation bottoms out around 1e-13 relative at the edge of the
    representable tail (q ~ 38), where phi and Phi individually
    underflow and the naive difference turns into garbage.
    """
    return s * decay * (_INV_SQRT_2PI - 0.5 * q * erfcx(q / _SQRT_2))


class CapletTable:
    """Everything but the vols that prices a run of caplets, computed once.

    Holds B*delta, |F - K|, max(F - K, 0), sqrt(t), B*delta*sqrt(t), the
    at-the-money mask (F == K) and the intrinsic B*delta*max(F - K, 0). The
    kernels price, price_vega and price_greeks each take one vector of vols
    and make one pass over the table. Their prices agree to the bit, as do
    the vegas of the last two; price_vector is price on a fresh table.
    A pass whose s = vol * sqrt(t) are all positive normal floats, the
    common case, runs without masks; one zero, negative, subnormal or NaN
    s sends the whole pass down the masked path, which gives the same
    bits wherever s > 0. table[rows] is the table of those caplets.
    """

    _FIELDS = ("base", "abs_moneyness", "itm", "root_t", "base_root_t", "atm", "intrinsic")

    def __init__(self, forwards, strike, expiries, accruals, discounts):
        moneyness = forwards - strike
        self.base = discounts * accruals
        self.abs_moneyness = np.abs(moneyness)
        self.itm = np.maximum(moneyness, 0.0)
        self.root_t = np.sqrt(expiries)
        self.base_root_t = self.base * self.root_t
        self.atm = moneyness == 0.0
        self.intrinsic = self.base * self.itm

    def __getitem__(self, rows):
        table = object.__new__(CapletTable)
        for name in self._FIELDS:
            setattr(table, name, getattr(self, name)[rows])
        return table

    def _gaussian(self, s):
        """(live, q, exp(-q^2/2)) for q = |F - K| / s, the terms price and greeks share.

        live is None when every s is a positive normal float, the common
        case: then no term needs a mask. Otherwise live marks s > 0, and q
        means nothing where s <= 0; q is capped at 1e9, where exp(-q^2/2) is
        0 already, so that subnormal s does not overflow it.
        """
        if s.size and s.min() >= _TINY:
            # a normal s keeps |F - K| / s finite for |F - K| < 4 (40,000 bp)
            q = np.minimum(self.abs_moneyness / s, 1e9)
            return None, q, np.exp(-0.5 * q * q)
        live = s > 0.0
        with np.errstate(over="ignore"):
            q = np.minimum(self.abs_moneyness / np.where(live, s, 1.0), 1e9)
        return live, q, np.exp(-0.5 * q * q)

    def _price(self, s, live, q, decay):
        """Prices at s = vol * sqrt(t); s <= 0 prices as intrinsic."""
        time_value = _time_value(s, q, decay)
        if live is not None:
            time_value = np.where(live, time_value, 0.0)
        return self.base * (self.itm + time_value)

    def _vega(self, live, decay):
        """B*delta * sqrt(t) * phi(q); where s <= 0, its s -> 0+ limit:
        phi(0) at the money, else 0."""
        if live is not None:
            decay = np.where(live | self.atm, decay, 0.0)
        return self.base_root_t * (decay / _SQRT_2PI)

    def price(self, vols):
        """Caplet prices; vols at or below zero price as intrinsic."""
        s = vols * self.root_t
        return self._price(s, *self._gaussian(s))

    def _price_vega(self, vols):
        s = vols * self.root_t
        live, q, decay = self._gaussian(s)
        return self._price(s, live, q, decay), self._vega(live, decay), live, q

    def price_vega(self, vols):
        """Prices and vegas in one pass, for non-negative vols."""
        return self._price_vega(vols)[:2]

    def price_greeks(self, vols):
        """Prices, vegas and vommas in one pass, for non-negative vols.

        Vomma is d(vega)/d(vol) = vega * q^2 / vol, zero at zero vol (the
        one-sided limit).
        """
        prices, vega, live, q = self._price_vega(vols)
        if live is not None:
            # where s <= 0, vega * q^2 is 0: q = 0 at the money, vega = 0 elsewhere
            vols = np.where(live, vols, 1.0)
        return prices, vega, vega * q * q / vols


def price_vector(forwards, strike, expiries, accruals, discounts, vols):
    """Vectorized caplet prices; vols at or below zero price as intrinsic."""
    vols = np.asarray(vols, dtype=float)
    return CapletTable(forwards, strike, expiries, accruals, discounts).price(vols)


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
    if np.any(discounts * accruals <= 0.0) or np.any(expiries <= 0.0):
        raise ValueError("need positive discount, accrual and expiry")
    table = CapletTable(forwards, strike, expiries, accruals, discounts)
    intrinsic = table.intrinsic
    scale = np.maximum(np.maximum(np.abs(targets), intrinsic), 1e-300)
    below = targets < intrinsic - 1e-14 * scale
    if np.any(below):
        raise NegativeTimeValueError(float((intrinsic - targets)[below][0]))

    vols = np.zeros(len(targets))
    live = targets > intrinsic
    atm = live & table.atm
    vols[atm] = targets[atm] * _SQRT_2PI / table.base_root_t[atm]
    solve = np.flatnonzero(live & ~atm)
    vols[solve] = _newton(table[solve], targets[solve] - intrinsic[solve])
    return vols


def _newton(table, target_tv):
    """implied_vol_vector away from the money, for time values target_tv > 0."""
    log_target = np.log(target_tv)

    def time_value_and_vega(rows, sigma):
        s = sigma * rows.root_t
        live, q, decay = rows._gaussian(s)
        return rows.base * _time_value(s, q, decay), rows._vega(live, decay)

    # the ATM time value majorizes every other moneyness at equal vol,
    # so the ATM inversion is a lower bound for the root
    lo = target_tv * _SQRT_2PI / table.base_root_t
    hi = np.maximum(2.0 * lo, 1e-4)
    short = np.arange(len(target_tv))
    for _ in range(_BRACKET_DOUBLINGS):
        below = time_value_and_vega(table[short], hi[short])[0] < target_tv[short]
        short = short[below]
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
        tv_val, slope = time_value_and_vega(table[k], s)
        above = tv_val > target_tv[k]
        hi[k] = np.where(above, s, hi[k])
        lo[k] = np.where(above, lo[k], s)
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
