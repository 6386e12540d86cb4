"""Cap quote diagnostics: market prices, decomposition, arbitrage flags, outliers.

A cap quote ladder shares one strike; one Ladder prices it for decompose and
for each stripping engine. Prices decompose into intrinsic and time value; a
drop in time value (or price) from one maturity to the next cannot be
reproduced by any non-negative caplet vol curve, so those increments are
flagged as arbitrage violations. Outliers in the flat vols themselves are
scored with the modified Z-score over a rolling median window.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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


def _running_sums(values):
    """Sums of values' first k entries, for k = 0 .. len(values)."""
    sums = np.empty(len(values) + 1)
    sums[0] = 0.0
    np.cumsum(values, out=sums[1:])
    return sums


class Ladder:
    """The market side of one quote ladder, priced once (cap_prices).

    Cap q has counts[q] caplets, price market[q] and intrinsic intrinsic[q].
    The longest cap's caplets fix at times, table is their CapletTable, and
    running_intrinsic[k] the intrinsic of the first k; floor_cost is
    isotonic_floor's. ladder[rows] is the ladder of those quotes, priced as
    they were. A price past the float range in bp is rejected: no artifact holds it.
    """

    def __init__(self, schedule, quotes):
        self.quotes = quotes
        self.counts = np.array([schedule.caplet_count(m) for m in quotes.maturities_months])
        self.market = cap_prices(schedule, quotes)
        if math.isinf(float(self.market.max()) * 1e4):  # a Python float warns of nothing
            with np.errstate(over="ignore"):
                past = quotes.maturities_months[np.isinf(self.market * 1e4)]
            months = ", ".join(f"{m}M" for m in past)
            raise InputError(f"cap prices past the float range in bp: {months}")
        n = self.counts[-1]
        self.times = schedule.fixing_times[:n]
        self.tenor_months = schedule.tenor_months
        self.delta = schedule.tenor_months / 12.0
        self.table = bachelier.CapletTable(
            schedule.forwards[:n], quotes.strike, self.times,
            schedule.accruals[:n], schedule.discounts[:n],
        )
        self.running_intrinsic = _running_sums(self.table.intrinsic)

    def __getitem__(self, rows):
        ladder = object.__new__(type(self))
        months, vols = self.quotes.maturities_months[rows], self.quotes.flat_vols[rows]
        ladder.quotes = CapQuoteSet(months, vols, self.quotes.strike)
        ladder.counts, ladder.market = self.counts[rows], self.market[rows]
        n = ladder.counts[-1]
        ladder.times, ladder.table = self.times[:n], self.table[:n]
        ladder.running_intrinsic = self.running_intrinsic[: n + 1]
        ladder.tenor_months, ladder.delta = self.tenor_months, self.delta
        return ladder

    @cached_property
    def intrinsic(self):
        # np.sum per cap, as cap_prices sums; floor_cost takes the running sums,
        # as cap_sums sums the engines' caps. Either order in the other's place
        # moves the last bits of what it writes: tv's nodes, strip.json's floor_cost
        return np.array([np.sum(self.table.intrinsic[:n]) for n in self.counts])

    def cap_sums(self, caplet_prices):
        """Cap prices from the prices of the caplets, each cap the first counts[q]."""
        return _running_sums(caplet_prices)[self.counts]

    @cached_property
    def floor_cost(self):
        time_values = self.market - self.running_intrinsic[self.counts]
        return isotonic_floor(time_values, self.market)

    def residuals_bp(self, model):
        """Model minus market cap prices, in bp."""
        return (model - self.market) * 1e4


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
    ladder = Ladder(schedule, quotes)
    price, intrinsic = ladder.market, ladder.intrinsic
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


def _sorted_median(values):
    """np.median of a sorted vector: its middle entry, or (a + b) / 2 of
    its middle two, which is the mean np.median takes of them."""
    middle = len(values) // 2
    return values[middle] if len(values) % 2 else (values[middle - 1] + values[middle]) / 2


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
    n = len(vols)
    # a window wider than the ladder, clamped, holds the whole ladder
    half = min(window // 2, max(n - 1, 0))
    # each quote's window, clamped at the ends, as one sorted row padded with inf
    index = np.arange(n)[:, None] + np.arange(-half, half + 1)
    inside = (index >= 0) & (index < n)
    windows = np.sort(np.where(inside, vols[np.clip(index, 0, n - 1)], np.inf), axis=1)
    # each window's _sorted_median, among its first `sizes` entries
    sizes = inside.sum(axis=1)
    lower = windows[np.arange(n), (sizes - 1) // 2]
    upper = windows[np.arange(n), sizes // 2]
    residual = vols - np.where(sizes % 2, lower, (lower + upper) / 2)
    med = _sorted_median(np.sort(residual))
    mad = _sorted_median(np.sort(np.abs(residual - med)))
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
