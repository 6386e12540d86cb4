"""Reference computations the benchmark checks capstrip against.

Everything here is written from the textbook formulas and shares no code
with capstrip: a plain-formula Bachelier caplet pricer, the caplet grid
built from two zero curves, a flat-vol inverter, and weighted isotonic
regression of cap time values with its L-infinity bound.

Conventions (the ones capstrip documents): times in years (months / 12),
continuously compounded zero rates, log-linear or natural-cubic
interpolation of log discount factors with flat zero rates outside the
pillars. Caplet i fixes at (i + 1) tenors, pays one tenor later and
accrues tenor / 12. A cap of maturity T months holds the first
T / tenor - 1 caplets.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import ndtr

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def read_pairs(path):
    """The two numeric columns of a headed two-column CSV."""
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle)][1:]
    pairs = np.array([[float(a), float(b)] for a, b in rows if a.strip()])
    return pairs[:, 0], pairs[:, 1]


def log_discount(pillar_months, zero_rates, interp, t):
    """log B(t) from continuously compounded zero rates (decimals)."""
    pillar_t = np.asarray(pillar_months, dtype=float) / 12.0
    rates = np.asarray(zero_rates, dtype=float)
    t = np.asarray(t, dtype=float)
    log_df = -rates * pillar_t
    if interp == "cubic":
        inside = CubicSpline(pillar_t, log_df, bc_type="natural")(t)
    elif interp == "loglinear":
        inside = np.interp(t, pillar_t, log_df)
    else:
        raise ValueError(f"unknown curve interpolation {interp!r}")
    below = -rates[0] * t
    above = -rates[-1] * t
    return np.where(t < pillar_t[0], below, np.where(t > pillar_t[-1], above, inside))


@dataclass(frozen=True)
class Grid:
    """Caplet grid: fixing times, accruals, simple forwards, pay-date discounts."""

    fixing_times: np.ndarray
    accruals: np.ndarray
    forwards: np.ndarray
    discounts: np.ndarray
    tenor_months: int

    def count(self, maturity_months):
        """Caplets in a cap of the given maturity."""
        return int(maturity_months) // self.tenor_months - 1


def build_grid(forward_curve, discount_curve, max_months, tenor_months, interp="loglinear"):
    """Caplet grid out to max_months from (pillar_months, rates) curve pairs."""
    fix_months = np.arange(tenor_months, max_months, tenor_months, dtype=float)
    t_fix = fix_months / 12.0
    t_pay = (fix_months + tenor_months) / 12.0
    accrual = np.full(len(fix_months), tenor_months / 12.0)
    growth = np.exp(
        log_discount(*forward_curve, interp, t_fix) - log_discount(*forward_curve, interp, t_pay)
    )
    forwards = (growth - 1.0) / accrual
    discounts = np.exp(log_discount(*discount_curve, interp, t_pay))
    return Grid(t_fix, accrual, forwards, discounts, tenor_months)


def caplet_prices(forwards, strike, expiries, accruals, discounts, vols):
    """B * delta * (s * phi(d) + (F - K) * Phi(d)), s = vol * sqrt(t), d = (F - K) / s.

    A zero vol prices at intrinsic value, B * delta * max(F - K, 0).
    """
    moneyness = np.asarray(forwards, dtype=float) - strike
    s = np.asarray(vols, dtype=float) * np.sqrt(expiries)
    live = s > 0.0
    s_safe = np.where(live, s, 1.0)
    d = moneyness / s_safe
    optional = s_safe * INV_SQRT_2PI * np.exp(-0.5 * d * d) + moneyness * ndtr(d)
    return discounts * accruals * np.where(live, optional, np.maximum(moneyness, 0.0))


def caplet_vegas(forwards, strike, expiries, accruals, discounts, vols):
    """dV/dsigma = B * delta * sqrt(t) * phi(d)."""
    root_t = np.sqrt(expiries)
    d = (np.asarray(forwards, dtype=float) - strike) / (np.asarray(vols, dtype=float) * root_t)
    return discounts * accruals * root_t * INV_SQRT_2PI * np.exp(-0.5 * d * d)


def cap_prices(grid, strike, counts, caplet_vols):
    """Cap prices for caps of the given caplet counts, from per-caplet vols."""
    n = max(counts)
    prices = caplet_prices(
        grid.forwards[:n],
        strike,
        grid.fixing_times[:n],
        grid.accruals[:n],
        grid.discounts[:n],
        np.asarray(caplet_vols, dtype=float)[:n],
    )
    return np.concatenate(([0.0], np.cumsum(prices)))[np.asarray(counts)]


def flat_cap_price(grid, strike, count, flat_vol):
    """One cap priced with the same vol on every caplet."""
    return float(cap_prices(grid, strike, [count], np.full(count, flat_vol))[0])


def intrinsic_values(grid, strike, counts):
    return cap_prices(grid, strike, counts, np.zeros(max(counts)))


def flat_vol(grid, strike, count, target):
    """The flat vol that prices a cap at target (Brent on a doubling bracket)."""
    floor = flat_cap_price(grid, strike, count, 0.0)
    if not target > floor:
        raise ValueError("target is not above the cap's intrinsic value")
    hi = 0.01
    while flat_cap_price(grid, strike, count, hi) < target:
        hi *= 2.0
    return brentq(
        lambda v: flat_cap_price(grid, strike, count, v) - target, 0.0, hi, xtol=1e-18, rtol=8.9e-16
    )


def vol_rounding_bound(grid, counts, vol_step):
    """Largest cap price change when every caplet vol moves by at most vol_step.

    Uses the at-the-money vega B * delta * sqrt(t) / sqrt(2 pi), which
    bounds the vega at any moneyness.
    """
    n = max(counts)
    vega_max = grid.discounts[:n] * grid.accruals[:n] * np.sqrt(grid.fixing_times[:n]) * INV_SQRT_2PI
    return np.concatenate(([0.0], np.cumsum(vega_max)))[np.asarray(counts)] * vol_step


def isotonic_fit(values, weights):
    """Weighted least-squares non-decreasing fit (pool adjacent violators)."""
    blocks = []  # [weighted mean, total weight, length]
    for value, weight in zip(values, weights):
        blocks.append([float(value), float(weight), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            mean_b, weight_b, len_b = blocks.pop()
            mean_a, weight_a, len_a = blocks.pop()
            total = weight_a + weight_b
            blocks.append([(mean_a * weight_a + mean_b * weight_b) / total, total, len_a + len_b])
    return np.concatenate([np.full(length, mean) for mean, _, length in blocks])


def isotonic_worst_error(time_values, prices):
    """Worst relative error of the L2 fit of non-decreasing time values.

    Model cap prices differ from market prices by the time-value change,
    so weights 1 / P^2 make the fit minimise the summed squared relative
    price errors, the objective of capstrip's global solver.
    """
    prices = np.asarray(prices, dtype=float)
    fit = isotonic_fit(time_values, 1.0 / prices**2)
    return float(np.max(np.abs(fit - time_values) / prices))


def isotonic_linf_bound(time_values, prices):
    """max over i < j of (TV_i - TV_j) / (P_i + P_j), and at least 0.

    No non-decreasing time-value ladder reprices every quote with a
    smaller worst relative error: a pair whose time value falls must
    share the fall between its two quotes.
    """
    tv = np.asarray(time_values, dtype=float)
    p = np.asarray(prices, dtype=float)
    gaps = (tv[:, None] - tv[None, :]) / (p[:, None] + p[None, :])
    return float(max(0.0, np.max(np.triu(gaps, k=1))))
