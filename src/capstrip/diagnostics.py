"""Cap quote diagnostics: price decomposition, arbitrage flags, outliers.

A cap quote ladder shares one strike. Prices decompose into intrinsic and
time value; a drop in time value (or price) from one maturity to the next
cannot be reproduced by any non-negative caplet vol curve, so those
increments are flagged as arbitrage violations. Outliers in the flat vols
themselves are scored with the modified Z-score over a rolling median
window.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import bachelier
from .term_structures import InputError, _load_csv_columns

_INCREMENT_TOL_BP = 1e-9


@dataclass(frozen=True)
class CapQuoteSet:
    """Flat-vol cap quotes (decimal vols) at one strike (decimal)."""

    maturities_months: np.ndarray
    flat_vols: np.ndarray
    strike: float = 0.0

    def __post_init__(self):
        months = np.asarray(self.maturities_months, dtype=int)
        vols = np.asarray(self.flat_vols, dtype=float)
        if months.ndim != 1 or months.shape != vols.shape or len(months) == 0:
            raise InputError("maturities and vols must be matching 1-d arrays")
        if np.any(np.diff(months) <= 0):
            raise InputError("quote maturities must be strictly increasing")
        if months[0] < 2:
            raise InputError("first cap maturity must be at least 2 months")
        if not np.all(np.isfinite(vols)) or np.any(vols < 0.0):
            raise InputError("flat vols must be finite and non-negative")
        if not np.isfinite(self.strike):
            raise InputError("strike must be finite")
        object.__setattr__(self, "maturities_months", months)
        object.__setattr__(self, "flat_vols", vols)

    def __len__(self):
        return len(self.maturities_months)

    @classmethod
    def from_csv(cls, path, strike=0.0):
        """Load quotes from a 'maturity_months,flat_vol_bp' CSV."""
        months, vols_bp = _load_csv_columns(path, "maturity_months", "flat_vol_bp")
        months = np.asarray(months)
        if not np.all(np.isfinite(months)) or np.any(months != np.round(months)):
            raise InputError(f"{path}: maturity months must be whole numbers")
        return cls(months.astype(int), np.asarray(vols_bp) * 1e-4, strike)

    def drop(self, months_to_drop):
        keep = ~np.isin(self.maturities_months, list(months_to_drop))
        if not np.any(keep):
            raise InputError("cannot drop every quote")
        return CapQuoteSet(self.maturities_months[keep], self.flat_vols[keep], self.strike)


def cap_prices(schedule, quotes):
    """Market prices (decimal) for every quote in the set.

    The whole ladder, each cap's caplets at its own flat vol, is priced in
    one call; each cap is then one np.sum over its slice, so every price
    is that of the cap priced alone, to the bit.
    """
    counts = np.array([schedule.caplet_count(m) for m in quotes.maturities_months])
    ends = np.cumsum(counts)
    caplet = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    prices = bachelier.price_vector(
        schedule.forwards[caplet],
        quotes.strike,
        schedule.fixing_times[caplet],
        schedule.accruals[caplet],
        schedule.discounts[caplet],
        np.repeat(quotes.flat_vols, counts),
    )
    return np.array([np.sum(cap) for cap in np.split(prices, ends[:-1])])


@dataclass
class DiagnosticsReport:
    """Per-quote decomposition in bp of notional, plus violation flags."""

    maturities_months: np.ndarray
    flat_vols_bp: np.ndarray
    cap_price_bp: np.ndarray
    intrinsic_bp: np.ndarray
    time_value_bp: np.ndarray
    dP_bp: np.ndarray
    dIV_bp: np.ndarray
    dTV_bp: np.ndarray
    violations: list = field(default_factory=list)


def decompose(schedule, quotes):
    """Split each cap into intrinsic and time value and difference the ladder.

    Violations are maturities whose price or time value falls below the
    previous quote's (impossible under non-negative caplet vols).
    """
    price = cap_prices(schedule, quotes)
    counts = [schedule.caplet_count(m) for m in quotes.maturities_months]
    caplets = bachelier.intrinsic_vector(
        schedule.forwards[: counts[-1]],
        quotes.strike,
        schedule.accruals[: counts[-1]],
        schedule.discounts[: counts[-1]],
    )
    # np.sum per cap, as cap_prices sums: a cumulative sum adds in another
    # order and moves the time values the tv engine writes in their last bits
    intrinsic = np.array([np.sum(caplets[:n]) for n in counts])
    tv = price - intrinsic
    d_price = np.diff(price, prepend=0.0)
    d_intrinsic = np.diff(intrinsic, prepend=0.0)
    d_tv = np.diff(tv, prepend=0.0)
    bad = (d_tv * 1e4 < -_INCREMENT_TOL_BP) | (d_price * 1e4 < -_INCREMENT_TOL_BP)
    return DiagnosticsReport(
        maturities_months=quotes.maturities_months.copy(),
        flat_vols_bp=quotes.flat_vols * 1e4,
        cap_price_bp=price * 1e4,
        intrinsic_bp=intrinsic * 1e4,
        time_value_bp=tv * 1e4,
        dP_bp=d_price * 1e4,
        dIV_bp=d_intrinsic * 1e4,
        dTV_bp=d_tv * 1e4,
        violations=[int(m) for m in quotes.maturities_months[bad]],
    )


def isotonic_floor(time_values, prices):
    """The least sum of squared relative price errors, ((model - P) / P)^2,
    that any non-negative caplet vols reach on this ladder: the arbitrage
    floor, 0 on a ladder without arbitrage, and nan when a price is 0,
    which has no relative error.

    Such vols price every caplet at or above its intrinsic value, so the
    model's cap time values are non-negative and non-decreasing in
    maturity, and each model price misses its market price P by its time
    value's miss. The best such ladder is the weighted isotonic fit of the
    time values, weights 1 / P^2, clipped at zero: pool adjacent
    violators, each pool kept as (w, e, weighted mean, size), its total
    weight w * 2**e. A quote no pool merges keeps its own time value, so
    the floor of a ladder without arbitrage is exactly 0.

    1 / P^2 overflows below a price of about 1e-154, so a quote's weight
    is kept as w = 1 / f^2 and e = -2k, for P = f * 2**k. Two pools merge
    at the larger exponent, which moves no bit of the mean wherever 1 / P^2
    is a float.
    """
    prices = np.asarray(prices, dtype=float)
    if not np.all(prices > 0.0):
        return np.nan
    pools = []
    for price, value in zip(prices.tolist(), np.asarray(time_values, dtype=float).tolist()):
        fraction, exponent = math.frexp(price)
        pools.append((1.0 / (fraction * fraction), -2 * exponent, value, 1))
        # merge while the last pool's mean falls below the one before it
        while len(pools) > 1 and pools[-1][2] < pools[-2][2]:
            (w1, e1, m1, n1), (w0, e0, m0, n0) = pools.pop(), pools.pop()
            e = max(e0, e1)
            w0, w1 = math.ldexp(w0, e0 - e), math.ldexp(w1, e1 - e)
            pools.append((w0 + w1, e, (w0 * m0 + w1 * m1) / (w0 + w1), n0 + n1))
    fit = np.repeat([max(mean, 0.0) for *_, mean, _ in pools], [n for *_, n in pools])
    miss = (fit - time_values) / prices
    return float(np.sum(miss * miss))


@dataclass
class OutlierReport:
    maturities_months: np.ndarray
    scores: np.ndarray
    flagged: list
    degenerate: bool = False  # MAD collapsed to zero; scores unusable


def detect_outliers(quotes, window=5, threshold=3.0):
    """Modified Z-scores of the flat vols against a rolling median.

    Each quote's residual is its vol minus the median of the window
    centred on it (clamped at the ends). Scores are
    0.6745 * (r - median(r)) / MAD(r); |score| > threshold flags the
    quote. A zero MAD means the scores are degenerate: nothing is
    flagged and the report says so.
    """
    if window < 1 or window % 2 == 0:
        raise InputError("window must be a positive odd number")
    if not threshold > 0:
        raise InputError("threshold must be positive")
    vols = quotes.flat_vols
    half = window // 2
    n = len(vols)
    residual = vols.copy()
    if n >= window:
        # the full windows, centred on quotes half..n-half-1, in one call
        residual[half : n - half] -= np.median(sliding_window_view(vols, window), axis=1)
    for q in (*range(min(half, n)), *range(max(half, n - half), n)):
        residual[q] -= np.median(vols[max(0, q - half) : q + half + 1])
    med = np.median(residual)
    mad = np.median(np.abs(residual - med))
    if mad == 0.0:
        return OutlierReport(
            maturities_months=quotes.maturities_months.copy(),
            scores=np.zeros(n),
            flagged=[],
            degenerate=True,
        )
    scores = 0.6745 * (residual - med) / mad
    flagged = [int(m) for m in quotes.maturities_months[np.abs(scores) > threshold]]
    return OutlierReport(
        maturities_months=quotes.maturities_months.copy(),
        scores=scores,
        flagged=flagged,
    )
