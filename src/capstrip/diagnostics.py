"""Cap quote diagnostics: price decomposition, arbitrage flags, outliers.

A cap quote ladder shares one strike. Prices decompose into intrinsic and
time value; a drop in time value (or price) from one maturity to the next
cannot be reproduced by any non-negative caplet vol curve, so those
increments are flagged as arbitrage violations. Outliers in the flat vols
themselves are scored with the modified Z-score over a rolling median
window.
"""

from dataclasses import dataclass, field

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


def cap_price_from_flat_vol(schedule, maturity_months, flat_vol, strike):
    """Price of one cap with a single vol applied to all its caplets."""
    n = schedule.caplet_count(maturity_months)
    prices = bachelier.price_vector(
        schedule.forwards[:n],
        strike,
        schedule.fixing_times[:n],
        schedule.accruals[:n],
        schedule.discounts[:n],
        np.full(n, flat_vol),
    )
    return float(np.sum(prices))


def cap_prices(schedule, quotes):
    """Market prices (decimal) for every quote in the set."""
    return np.array(
        [
            cap_price_from_flat_vol(schedule, m, v, quotes.strike)
            for m, v in zip(quotes.maturities_months, quotes.flat_vols)
        ]
    )


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
    residual = np.empty(n)
    for q in range(n):
        lo = max(0, q - half)
        hi = min(n, q + half + 1)
        residual[q] = vols[q] - np.median(vols[lo:hi])
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


def remove_outliers(quotes, window=5, threshold=3.0):
    """Drop flagged quotes; returns (clean quotes, report)."""
    report = detect_outliers(quotes, window=window, threshold=threshold)
    if not report.flagged:
        return quotes, report
    return quotes.drop(report.flagged), report
