"""Zero curves and caplet schedules for monthly-tenor caps.

Times are year fractions (months / 12), rates continuously compounded
decimals. Curve interpolation acts on log discount factors so that both
supported schemes price forward rates consistently.
"""

import csv

import numpy as np
from scipy.interpolate import CubicSpline


class InputError(ValueError):
    """Malformed or inconsistent user input (bad CSV, bad config value)."""


MAX_HORIZON_MONTHS = 1200  # 100 years: the longest caplet schedule built


def _load_csv_columns(path, first_col, second_col):
    """Read a two-column CSV, returning two float lists.

    Errors name the file, line, and column so the CLI can surface them.
    """
    rows_a, rows_b = [], []
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise InputError(f"{path}: cannot open ({exc.strerror})") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != [first_col, second_col]:
            raise InputError(
                f"{path}: line 1: expected header '{first_col},{second_col}'"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise InputError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
            for colno, (name, text) in enumerate(zip((first_col, second_col), row), start=1):
                try:
                    value = float(text)
                except ValueError:
                    raise InputError(
                        f"{path}: line {lineno}: column {colno} ({name}): "
                        f"not a number: {text!r}"
                    ) from None
                (rows_a if colno == 1 else rows_b).append(value)
    if not rows_a:
        raise InputError(f"{path}: no data rows")
    return rows_a, rows_b


class ZeroCurve:
    """Continuously compounded zero curve on month pillars.

    interp 'loglinear' is linear in log B(t); 'cubic' is a natural C2
    spline in log B(t). Beyond the pillar range the zero rate is held flat.
    """

    def __init__(self, months, zero_rates, interp="loglinear"):
        months = np.asarray(months, dtype=float)
        rates = np.asarray(zero_rates, dtype=float)
        if months.ndim != 1 or months.shape != rates.shape:
            raise InputError("pillar months and rates must be 1-d arrays of equal length")
        if len(months) < 2:
            raise InputError("need at least two pillars")
        if not (np.all(np.isfinite(months)) and np.all(np.isfinite(rates))):
            raise InputError("pillar months and rates must be finite")
        if np.any(np.diff(months) <= 0):
            raise InputError("pillar months must be strictly increasing")
        if interp not in ("loglinear", "cubic"):
            raise InputError(f"unknown curve interpolation {interp!r}")
        self.interp = interp
        self._t = months / 12.0
        self._z = rates
        self._log_df = -rates * self._t
        if interp == "cubic":
            self._spline = CubicSpline(self._t, self._log_df, bc_type="natural")
        else:
            self._spline = None

    @classmethod
    def from_csv(cls, path, interp="loglinear"):
        """Load pillars from a 'maturity_months,zero_rate_pct' CSV."""
        months, pct = _load_csv_columns(path, "maturity_months", "zero_rate_pct")
        return cls(months, np.asarray(pct) / 100.0, interp=interp)

    def log_discount(self, t):
        t = np.asarray(t, dtype=float)
        if self._spline is not None:
            ld = self._spline(t)
        else:
            ld = np.interp(t, self._t, self._log_df)
        # flat zero-rate extrapolation on both sides
        ld = np.where(t < self._t[0], -self._z[0] * t, ld)
        ld = np.where(t > self._t[-1], -self._z[-1] * t, ld)
        return ld

    def discount_factor(self, t):
        return np.exp(self.log_discount(t))

    def forward_rate(self, t1, t2):
        """Simple-compounded forward over [t1, t2]."""
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        if np.any(t2 <= t1):
            raise InputError("forward_rate requires t2 > t1")
        return (np.exp(self.log_discount(t1) - self.log_discount(t2)) - 1.0) / (t2 - t1)


class CapletSchedule:
    """Monthly caplet grid shared by every cap in a quote set.

    Caplet i (0-based) fixes at (i+1)*tenor months, accrues tenor/12 and
    pays one tenor later. A cap of maturity T months covers the first
    T/tenor - 1 caplets.
    """

    def __init__(self, fixing_times, pay_times, accruals, forwards, discounts, tenor_months):
        self.fixing_times = fixing_times
        self.pay_times = pay_times
        self.accruals = accruals
        self.forwards = forwards
        self.discounts = discounts
        self.tenor_months = tenor_months

    def __len__(self):
        return len(self.fixing_times)

    def caplet_count(self, maturity_months):
        """Number of caplets in a cap of the given maturity."""
        n, rem = divmod(int(maturity_months), self.tenor_months)
        if rem or n < 2:
            raise InputError(
                f"cap maturity {maturity_months}M not a >=2 multiple of tenor "
                f"{self.tenor_months}M"
            )
        n -= 1
        if n > len(self):
            raise InputError(f"schedule too short for {maturity_months}M cap")
        return n


def build_schedule(forward_curve, discount_curve, max_maturity_months, tenor_months=1):
    """Build the caplet grid out to the last cap maturity, at most MAX_HORIZON_MONTHS."""
    if max_maturity_months > MAX_HORIZON_MONTHS:
        raise InputError(
            f"last maturity {max_maturity_months}M is past the {MAX_HORIZON_MONTHS}M horizon"
        )
    if max_maturity_months < 2 * tenor_months:
        raise InputError("max maturity must cover at least one caplet")
    if max_maturity_months % tenor_months:
        raise InputError("max maturity must be a multiple of the tenor")
    fix_months = np.arange(tenor_months, max_maturity_months, tenor_months)
    t_fix = fix_months / 12.0
    t_pay = (fix_months + tenor_months) / 12.0
    accrual = np.full(len(fix_months), tenor_months / 12.0)
    forwards = forward_curve.forward_rate(t_fix, t_pay)
    discounts = discount_curve.discount_factor(t_pay)
    return CapletSchedule(t_fix, t_pay, accrual, forwards, discounts, tenor_months)
