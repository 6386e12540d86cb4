"""Command-line pipeline: load curves and quotes, diagnose, repair, strip, report.

A run writes up to five artifacts under the output directory:

  diagnostics.csv     price / intrinsic / time-value ladder with violation flags
  outliers.csv        modified Z-scores (skipped when the outlier policy is off)
  strip.csv           caplet vols by fixing month
  strip.json          nodes (and under exp their log-vols), residuals, removed
                      quotes, and the config echo
  volcurve_daily.csv  the evaluated vol curve sampled daily, for plotting

Bp quantities in CSV output carry 4 decimal places; the JSON sidecar keeps
full precision. Identical inputs produce byte-identical files.

Every CSV, compare's compare.csv too, is written by one vectorised
fixed-point writer (_csv_rows). It works in blocks of 2,048 rows (the
daily curve runs to 36,500 lines), and fills each block's one
preallocated rows x words buffer of uint32 words, four NUL-padded ASCII
bytes each; every column writes its words into its own slice, and the
NULs are dropped at the end. Every "%.4f" cell comes from _bp_words, and
is the text "%.4f" % v gives: v prints as the integer
floor(|v| 1e4) + (fraction > 1/2), and as the product errs by at most
half an ulp, only values within 4 ulps of a half are in doubt; those are
rounded exactly, half to even, by decimal. The day column,
"%.6f" % (d / 365), is d // 365 and the 6 decimals of r / 365 for
r = d mod 365, the integer (2e6 r + 365) // 730, exact because 365 is
odd; fixing months are round(t * 12), and quote months and 0/1 flags
print as str prints them. A block whose bp cells hold a non-finite
value, or one whose |v| 1e4 reaches 2**52 and so has no room for its
digits in int64, prints those cells by `%` value by value.

Exit codes: 0 success; 2 when --strict is set, the outlier policy is off,
and the quote ladder has arbitrage violations; 1 for any input problem.
"""

import dataclasses
import decimal
import functools
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from .diagnostics import CapQuoteSet, decompose, detect_outliers
from .stripping import (
    StripConfig,
    VolMap,
    add_synthetic_far_quote,
    bootstrap_sequential,
    strip_global,
    strip_time_value,
)
from .term_structures import InputError, ZeroCurve, build_schedule
from .vol_interpolation import FAMILIES, VolCurve, check_family

# click's usage errors normally exit 2; that code is reserved for the strict
# arbitrage signal, so downgrade them to plain input errors
click.exceptions.UsageError.exit_code = 1

_METHODS = ("tv", "bootstrap", "global")
_NODE_CHOICES = ("maturity", "mid")
_OUTLIER_POLICIES = ("off", "report", "remove")
_CURVE_INTERPS = ("loglinear", "cubic")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One pipeline run, fully specified; mirrors the CLI flag surface."""

    projection_curve: str
    discount_curve: str
    quotes: str
    strike_bp: float = 0.0
    tenor_months: int = 1
    method: str = "bootstrap"
    family: str = "flat"
    beta: float = 1.0
    nodes: str = "maturity"
    positivity: str = "none"
    floor_bp: float = 0.0
    outliers: str = "report"
    mad_threshold: float = 3.0
    far_quote_months: int = 0
    far_quote_vol_bp: float = float("nan")
    curve_interp: str = "loglinear"
    strict: bool = False
    out_dir: str = "out"

    def __post_init__(self):
        # os.PathLike paths are kept as the str the JSON echo can hold
        for name in ("projection_curve", "discount_curve", "quotes", "out_dir"):
            object.__setattr__(self, name, os.fspath(getattr(self, name)))
        if self.strike_bp < -1000.0:
            raise InputError("strike must be at least -1000 bp")
        if self.tenor_months < 1:
            raise InputError("tenor must be at least 1 month")
        if self.method not in _METHODS:
            raise InputError(f"method must be one of {_METHODS}; got {self.method!r}")
        check_family(self.family)
        if self.nodes not in _NODE_CHOICES:
            raise InputError("nodes must be 'maturity' or 'mid'")
        if self.positivity != "none" and self.method != "global":
            raise InputError(
                f"positivity {self.positivity!r} needs --method global; got {self.method!r}"
            )
        if self.outliers not in _OUTLIER_POLICIES:
            raise InputError(f"outlier policy must be one of {_OUTLIER_POLICIES}")
        if not 0.0 < self.mad_threshold < np.inf:
            raise InputError("MAD threshold must be a finite positive number")
        if self.curve_interp not in _CURVE_INTERPS:
            raise InputError(f"curve interpolation must be one of {_CURVE_INTERPS}")
        if self.far_quote_months < 0:
            raise InputError("far quote months must be positive")


def _engine(method):
    """The stripping engine behind a method name.

    Built per call from this module's names, so a wrapper set on one of
    them (as perfbench's tracer does) is the one that runs.
    """
    engines = {"tv": strip_time_value, "bootstrap": bootstrap_sequential, "global": strip_global}
    return engines[method]


def evaluated_curve(result):
    """sigma(t) exactly as the pricer evaluated it for this result.

    Node-based results rebuild the interpolated curve and apply the
    engine's VolMap (zero or positivity floor, or the exponential of the
    log-curve under the exp transform, rebuilt from the log-vols the
    solver carried on the result). The ramp families' width is the caplet
    tenor, which is the first fixing time: caplet i fixes at (i + 1) tenors.
    Time-value results have no curve between fixings, so they step through
    the solved vols.
    """
    if result.method == "tv":
        times = np.asarray(result.caplet_times, dtype=float)
        vols = np.asarray(result.caplet_vols, dtype=float)

        def step(t):
            idx = np.searchsorted(times, np.asarray(t, dtype=float), side="right") - 1
            return vols[np.clip(idx, 0, len(vols) - 1)]

        return step
    cfg = result.config
    vol_map = VolMap.of(cfg, result.method)
    values = result.node_values if result.curve_values is None else result.curve_values
    curve = VolCurve(
        cfg.family,
        result.node_times,
        values,
        beta=cfg.beta,
        delta=result.caplet_times[0],
    )
    return lambda t: vol_map(curve(t))


def _ladder_table(header, months, bp_columns, listed):
    """One line per quote: its month, its bp cells, and 1 if its month is
    listed, else 0. The whole line is one _bp_words block, with the month
    and the flag printed whole."""
    listed = set(listed)
    flags = [month in listed for month in months.tolist()]
    table = np.array((months, *bp_columns, flags), dtype=float).T
    return _csv_rows(header, (functools.partial(_bp_words, integers=(0, -1)), table))


def _diagnostics_text(report):
    return _ladder_table(
        "maturity_months,flat_vol_bp,cap_price_bp,intrinsic_bp,time_value_bp,"
        "d_price_bp,d_intrinsic_bp,d_time_value_bp,violation",
        report.maturities_months,
        (
            report.flat_vols_bp, report.cap_price_bp, report.intrinsic_bp,
            report.time_value_bp, report.dP_bp, report.dIV_bp, report.dTV_bp,
        ),
        report.violations,
    )


def _outliers_text(quotes, report):
    return _ladder_table(
        "maturity_months,flat_vol_bp,score,flagged",
        quotes.maturities_months,
        (quotes.flat_vols * 1e4, report.scores),
        report.flagged,
    )


def _word(text):
    """A 4-byte ASCII word as one uint32, NUL-padded on the left."""
    return np.frombuffer(text.encode("ascii").rjust(4, b"\0"), np.uint32)[0]


@functools.cache
def _digit_words():
    """Words for 4-digit groups: 0..9999 as "0000".."9999", then
    10000 + k as k without its leading zeros ("0" for 0), then 20000, all
    NUL. Built on first use, read-only."""
    group = np.arange(10_000, dtype=np.uint16)[:, None]
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (group // places % 10 + ord("0")).astype(np.uint8)
    table = np.zeros((20_001, 4), np.uint8)
    table[:10_000] = digits
    table[10_000:20_000] = np.where((group < places) & (places > 1), 0, digits)
    words = table.view(np.uint32).ravel()
    words.flags.writeable = False
    return words


_MINUS, _POINT, _COMMA, _NEWLINE = _word("-"), _word("."), _word(",\0\0\0"), _word("\n\0\0\0")
_BP_STEP = decimal.Decimal("1e-4")
_BLOCK_ROWS = 2048


@functools.cache
def _separators(first, columns):
    """The first word of each of a row's columns: first, then commas."""
    words = np.full(columns, _COMMA)
    words[0] = first
    words.flags.writeable = False
    return words


def _divmod(n, d):
    """np.divmod(n, d) for int64 n, by one floor division and one
    multiply-subtract, in about half of np.divmod's time."""
    q = n // d
    return q, n - q * d


def _fixed_words(n, decimals, negative, integers=()):
    """The "%.{decimals}f" cells of the signed n / 10**decimals, for n >= 0
    in int64 and decimals 0 or 4, one row of cells per row of n (a column,
    or rows x columns), as (width, write): write(out, separator) fills
    out, a rows x width slice of uint32 words, with the cells' text,
    NUL-padded. Each cell's first word holds its separator, the row's
    first the given one, and its sign. The columns listed in integers
    print only their whole part, without the point.

    Each 4-digit group takes one divmod, and the top group of the whole
    part none, as it is already below 10**4.
    """
    n = n.reshape(len(n), -1)
    negative = np.reshape(negative, n.shape) if np.ndim(negative) else negative
    int_words = -(-len(str(int(n.max(initial=0)) // 10**decimals)) // 4)
    cell = 1 + int_words + 2 * (decimals > 0)  # then the point and the 4 decimals
    digit_words = _digit_words()

    def write(out, separator):
        out = out.reshape(len(n), -1, cell)
        separators = _separators(separator, n.shape[1])
        out[:, :, 0] = np.where(negative, _MINUS | separators, separators)
        rest, fraction = _divmod(n, 10**decimals) if decimals else (n, None)
        for j in range(int_words):
            # a group with nothing above it prints without its leading zeros,
            # and one above the lowest, with nothing at or above it, not at all
            if j < int_words - 1:
                higher, group = _divmod(rest, 10_000)
                group += 10_000 * (higher == 0)
            else:
                higher, group = None, rest + 10_000
            if j:
                group[rest == 0] = 20_000
            out[:, :, int_words - j] = digit_words[group]
            rest = higher
        if decimals:
            out[:, :, int_words + 1] = _POINT
            out[:, :, int_words + 2] = digit_words[fraction]
        if integers:
            out[:, list(integers), int_words + 1 :] = 0

    return n.shape[1] * cell, write


def _text_words(cells):
    """_fixed_words' (width, write) for cells given as ASCII text."""
    text = np.array(cells, dtype=bytes)
    text = text.reshape(len(text), -1)
    cell = 1 + -(-text.itemsize // 4)

    def write(out, separator):
        out = out.reshape(len(text), -1, cell)
        out[:, :, 0] = _separators(separator, text.shape[1])
        out[:, :, 1:] = 0
        out[:, :, 1:].view(np.uint8)[..., : text.itemsize] = text[..., None].view(np.uint8)

    return text.shape[1] * cell, write


def _bp_words(values, integers=()):
    """_fixed_words' "%.4f" cells of float values, each exactly as `%` prints it;
    the columns listed in integers hold integers, printed as str prints them.

    n = floor(|v| 1e4) + (fraction > 1/2) is |v| to 4 decimals, rounded
    as `%` rounds, wherever the product's half-ulp error cannot carry the
    fraction across 1/2; the few within 4 ulps of a half are rounded
    exactly, half to even, by decimal, whose 28 digits hold n's 16. The
    sign is the sign bit, so -0.0 and tiny negatives print -0.0000. A
    block with a non-finite value, or one reaching 2**52 after scaling,
    where int64 has no room left for the digits, is formatted by `%` value
    by value.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        scaled = np.abs(values) * 1e4
    # a nan maximum fails the test too, as does a value scaled past the float range
    if not scaled.max(initial=0.0) < 2.0**52:
        rows = values.reshape(len(values), -1).tolist()
        formats = ["%.4f"] * len(rows[0])
        for column in integers:
            formats[column] = "%d"
        return _text_words([[f % v for f, v in zip(formats, row)] for row in rows])
    whole = np.floor(scaled)
    fraction = scaled - whole
    n = whole.astype(np.int64) + (fraction > 0.5)
    # an ulp of scaled is at most scaled * 2**-52, so this takes in 4 ulps
    for i in np.flatnonzero(np.abs(fraction - 0.5) <= scaled * 2.0**-50):
        exact = decimal.Decimal(abs(float(values.flat[i])))
        n.flat[i] = int(exact.quantize(_BP_STEP, decimal.ROUND_HALF_EVEN).scaleb(4))
    return _fixed_words(n, 4, np.signbit(values), integers)


@functools.cache
def _day_fraction_words():
    """The point and the 6 decimals of r / 365, for r < 365, as two word
    vectors: the decimals are r * 1e6 / 365 rounded to an integer, and
    365 is odd, so that quotient is never within 1/730 of a half, far
    beyond its float error, and (2e6 r + 365) // 730 is that integer
    exactly. Built on first use, read-only."""
    top, low = _divmod((2_000_000 * np.arange(365) + 365) // 730, 10_000)
    # the top word keeps the last two digits of its group, after the point
    last_two = np.frombuffer(b"\0\0\xff\xff", np.uint32)[0]
    words = (_digit_words()[top] & last_two | _word(".\0\0"), _digit_words()[low])
    for vector in words:
        vector.flags.writeable = False
    return words


def _day_words(days):
    """(width, write) of the "%.6f" cells of d / 365 for whole days d >= 0:
    the whole part d // 365 as an integer, then the point and decimals of
    (d % 365) / 365, which _day_fraction_words holds."""
    whole, rest = _divmod(days, 365)
    width, write_whole = _fixed_words(whole, 0, False)

    def write(out, separator):
        write_whole(out[:, :width], separator)
        top, low = _day_fraction_words()
        out[:, width] = top[rest]
        out[:, width + 1] = low[rest]

    return width + 2, write


def _month_words(times):
    """_fixed_words' cells of round(t * 12) for times t in years; np.rint
    rounds halves to even, as round does."""
    months = np.rint(times * 12.0).astype(np.int64)
    return _fixed_words(np.abs(months), 0, months < 0)


def _csv_rows(header, *columns):
    """header, then one line per row of the (words, values) columns, whose
    words function gives a block of values' (width, write), as
    _fixed_words does; comma-separated, NULs dropped. A column's values
    are one value per row, or a rows x k array of k cells per row. Each
    block of _BLOCK_ROWS rows is written into one rows x words buffer,
    each column into its slice, which bounds the memory the temporaries
    hold."""
    text = [header]
    for start in range(0, len(columns[0][1]), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        cells = [words(values[block]) for words, values in columns]
        lines = np.empty((len(columns[0][1][block]), sum(width for width, _ in cells)), np.uint32)
        at = 0
        # each row opens with the line break before it
        for index, (width, write) in enumerate(cells):
            write(lines[:, at : at + width], _COMMA if index else _NEWLINE)
            at += width
        text.append(lines.tobytes().translate(None, b"\0").decode("ascii"))
    text.append("\n")
    return "".join(text)


def _strip_csv_text(result):
    return _csv_rows(
        "fixing_months,caplet_vol_bp",
        (_month_words, np.asarray(result.caplet_times, dtype=float)),
        (_bp_words, np.asarray(result.caplet_vols, dtype=float) * 1e4),
    )


def _json_number(value):
    """value, or None where it is nan or inf: strict JSON has neither."""
    return value if np.isfinite(value) else None


def _strip_json_text(result, config):
    config_echo = dataclasses.asdict(config)
    if np.isnan(config_echo["far_quote_vol_bp"]):
        config_echo["far_quote_vol_bp"] = None  # strict-JSON friendly
    payload = {
        "method": result.method,
        "converged": result.converged,
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "floor_cost": _json_number(result.floor_cost),
        "gap_to_floor": _json_number(result.gap_to_floor),
        "quote_months": [int(m) for m in result.quote_months],
        "market_prices_bp": [float(p) for p in result.market_prices_bp],
        "residuals_bp": [float(r) for r in result.residuals_bp],
        "removed_months": [int(m) for m in result.removed_months],
        "clamped_months": [int(m) for m in result.clamped_months],
        "node_times_years": [float(t) for t in result.node_times],
        "node_values_bp": [float(v) * 1e4 for v in result.node_values],
        # under exp, the log-vols the curve interpolates, as solved
        "node_log_vols": (
            None if result.curve_values is None else [float(v) for v in result.curve_values]
        ),
        "config": config_echo,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _daily_curve_text(result):
    sigma = evaluated_curve(result)
    days = np.arange(1, int(np.floor(result.caplet_times[-1] * 365.0)) + 1)
    vols_bp = np.asarray(sigma(days / 365.0), dtype=float) * 1e4
    return _csv_rows("t_years,caplet_vol_bp", (_day_words, days), (_bp_words, vols_bp))


def _write_files(out, files):
    """Write each text over its artifact's old bytes, then cut the file to length.

    No O_TRUNC, so the file never passes through zero length: on ext4 a
    rewrite through zero length can wait on a flush (likely its
    auto_da_alloc), which stalled a rewrite of 55 artifacts for seconds.
    The inode stays, so hard links, mode and owner do too.
    """
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        with open(os.open(out / name, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as file:
            file.write(text.encode())
            file.truncate()


def _load_market(config):
    """The run's caplet schedule, out to its last quote or far quote, and its quotes."""
    forward = ZeroCurve.from_csv(config.projection_curve, interp=config.curve_interp)
    discount = ZeroCurve.from_csv(config.discount_curve, interp=config.curve_interp)
    quotes = CapQuoteSet.from_csv(config.quotes, strike=config.strike_bp * 1e-4)
    max_months = max(int(quotes.maturities_months[-1]), config.far_quote_months)
    return build_schedule(forward, discount, max_months, config.tenor_months), quotes


def run_pipeline(config):
    """Diagnose, apply the outlier policy, strip, and write artifacts.

    Returns the process exit code. Input problems raise InputError; the
    command wrapper maps those to exit 1 without partial outputs: every
    result and artifact text is computed before the first file is written.
    """
    schedule, quotes = _load_market(config)
    strip_cfg = StripConfig(
        family=config.family,
        placement=config.nodes,
        beta=config.beta,
        positivity=config.positivity,
        floor_bp=config.floor_bp,
    )

    out = Path(config.out_dir)
    report = decompose(schedule, quotes)
    files = {"diagnostics.csv": _diagnostics_text(report)}

    if config.outliers != "off":
        outlier_report = detect_outliers(quotes, threshold=config.mad_threshold)
        files["outliers.csv"] = _outliers_text(quotes, outlier_report)
        if config.outliers == "remove" and outlier_report.flagged:
            quotes = quotes.drop(outlier_report.flagged)
    elif config.strict and report.violations:
        _write_files(out, files)
        months = ", ".join(f"{m}M" for m in report.violations)
        click.echo(f"arbitrage violations at {months}; strict mode, stopping", err=True)
        return 2

    if config.far_quote_months:
        vol = None if np.isnan(config.far_quote_vol_bp) else config.far_quote_vol_bp * 1e-4
        quotes = add_synthetic_far_quote(quotes, config.far_quote_months, vol)

    result = _engine(config.method)(schedule, quotes, strip_cfg)

    files["strip.csv"] = _strip_csv_text(result)
    files["strip.json"] = _strip_json_text(result, config)
    files["volcurve_daily.csv"] = _daily_curve_text(result)
    _write_files(out, files)

    click.echo(
        f"{config.method}: {len(result.quote_months)} quotes used, "
        f"max residual {result.max_abs_residual_bp:.3e} bp, outputs in {out}"
    )
    return 0


_STANDARD_ROWS = (
    ("flat at maturity", "bootstrap", dict(family="flat")),
    ("linear at maturity", "bootstrap", dict(family="linear")),
    ("cubic at maturity", "bootstrap", dict(family="cubic")),
    ("linear mid", "global", dict(family="linear", placement="mid")),
    ("cubic mid", "global", dict(family="cubic", placement="mid")),
    ("hyman mid", "global", dict(family="hyman", placement="mid")),
    (
        "hyman mid floor=10",
        "global",
        dict(family="hyman", placement="mid", positivity="floor", floor_bp=10.0),
    ),
    ("linear exp mid", "global", dict(family="linear", placement="mid", positivity="exp")),
    ("cubic exp mid", "global", dict(family="cubic", placement="mid", positivity="exp")),
)


def compare_methods(schedule, quotes, configs=None):
    """Min vol / min node / reprice error per configuration, on shared data.

    Each row is (label, min_vol_bp, min_node_bp, max relative reprice error).
    The default set is the nine standard configurations: bootstrap with
    at-maturity nodes for flat/linear/cubic, then the global solver on
    midpoint nodes for linear/cubic/hyman unconstrained, hyman with a 10 bp
    floor, and linear/cubic under the exp transform.
    """
    if configs is None:
        configs = [
            (label, engine, StripConfig(**kwargs)) for label, engine, kwargs in _STANDARD_ROWS
        ]
    rows = []
    for label, engine, cfg in configs:
        result = _engine(engine)(schedule, quotes, cfg)
        rows.append((label, result.min_caplet_vol_bp, result.min_node_bp, result.max_rel_error))
    return rows


def _parse_positivity(text):
    text = str(text).strip().lower()
    if text in ("none", "exp", "nonneg"):
        return text, 0.0
    if text.startswith("floor="):
        try:
            level = float(text[len("floor="):])
        except ValueError:
            raise InputError(f"bad floor level in positivity {text!r}") from None
        return "floor", level
    raise InputError(f"positivity must be none, exp, nonneg, or floor=<bp>; got {text!r}")


def _parse_far_quote(text):
    if text is None:
        return 0, float("nan")
    head, sep, tail = str(text).partition(":")
    try:
        months = int(head)
    except ValueError:
        raise InputError(f"far quote months must be an integer; got {head!r}") from None
    if not sep:
        return months, float("nan")
    try:
        return months, float(tail)
    except ValueError:
        raise InputError(f"far quote vol must be a number; got {tail!r}") from None


_TEXT = (str, "a string")
_NUMBER = ((int, float), "a number")
# the JSON types each config key takes, and how an error names them
_CONFIG_TYPES = {
    "projection_curve": _TEXT,
    "discount_curve": _TEXT,
    "quotes": _TEXT,
    "strike_bp": _NUMBER,
    "tenor_months": (int, "an integer"),
    "method": _TEXT,
    "family": _TEXT,
    "beta": _NUMBER,
    "nodes": _TEXT,
    "positivity": _TEXT,
    "outliers": _TEXT,
    "mad_threshold": _NUMBER,
    "far_quote": ((str, int, type(None)), "a string, an integer or null"),
    "curve_interp": _TEXT,
    "strict": (bool, "true or false"),
    "out": _TEXT,
}


def _merge_json_config(ctx, values, config_path):
    """Overlay JSON config values under explicitly passed CLI flags."""
    if not config_path:
        return values
    try:
        raw = json.loads(Path(config_path).read_text())
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise InputError(f"config {config_path}: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"config {config_path}: expected a JSON object")
    merged = dict(values)
    source = click.core.ParameterSource
    for key, value in raw.items():
        if key not in _CONFIG_TYPES:
            raise InputError(f"config {config_path}: unknown key {key!r}")
        types, name = _CONFIG_TYPES[key]
        # Python counts true and false as integers; JSON does not
        if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
            raise InputError(
                f"config {config_path}: {key!r} must be {name}; got {json.dumps(value)}"
            )
        if types is _NUMBER[0]:
            try:
                float(value)
            except OverflowError:
                raise InputError(
                    f"config {config_path}: {key!r} is an integer too large for a float"
                ) from None
        if ctx.get_parameter_source(key) in (source.DEFAULT, None):
            merged[key] = value
    return merged


@click.group()
def main():
    """Cap-to-caplet volatility stripping under the normal model."""


def _market_options(command):
    opts = [
        click.option("--projection-curve", "projection_curve", type=click.Path(), default=None,
                     help="CSV of zero rates for the forward (projection) curve."),
        click.option("--discount-curve", "discount_curve", type=click.Path(), default=None,
                     help="CSV of zero rates for the discount curve."),
        click.option("--quotes", type=click.Path(), default=None,
                     help="CSV of cap maturities and flat vols."),
        click.option("--strike-bp", type=float, default=0.0, show_default=True,
                     help="Cap strike in bp."),
        click.option("--tenor-months", type=int, default=1, show_default=True,
                     help="Caplet tenor in months."),
        click.option("--curve-interp", type=click.Choice(_CURVE_INTERPS), default="loglinear",
                     show_default=True, help="Zero-curve interpolation."),
        click.option("--out", type=click.Path(), default="out", show_default=True,
                     help="Output directory."),
    ]
    for opt in reversed(opts):
        command = opt(command)
    return command


def _require_paths(values):
    for key, label in (
        ("projection_curve", "projection curve"),
        ("discount_curve", "discount curve"),
        ("quotes", "quotes"),
    ):
        if not values[key]:
            raise InputError(f"{label} CSV path is required (flag or config file)")


@main.command()
@_market_options
@click.option("--method", type=click.Choice(_METHODS), default="bootstrap", show_default=True,
              help="Stripping engine.")
@click.option("--family", type=click.Choice(FAMILIES), default="flat", show_default=True,
              help="Vol interpolation family.")
@click.option("--beta", type=float, default=1.0, show_default=True,
              help="Kernel transition width as a fraction of the tenor.")
@click.option("--nodes", type=click.Choice(_NODE_CHOICES), default="maturity",
              show_default=True, help="Node placement.")
@click.option("--positivity", default="none", show_default=True,
              help="Positivity handling: none, exp, nonneg, or floor=<bp>.")
@click.option("--outliers", type=click.Choice(_OUTLIER_POLICIES), default="report",
              show_default=True, help="Outlier policy.")
@click.option("--mad-threshold", type=float, default=3.0, show_default=True,
              help="Modified Z-score cutoff.")
@click.option("--far-quote", default=None, metavar="<months>[:<bp>]",
              help="Append a synthetic far quote (vol defaults to the last quote's).")
@click.option("--strict", is_flag=True,
              help="Exit 2 on arbitrage violations when the outlier policy is off.")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON file of option values; explicit flags take precedence.")
@click.pass_context
def run(ctx, config_path, **values):
    """Strip caplet vols from a cap ladder and write reports."""
    try:
        values = _merge_json_config(ctx, values, config_path)
        _require_paths(values)
        positivity, floor_bp = _parse_positivity(values["positivity"])
        far_months, far_vol_bp = _parse_far_quote(values["far_quote"])
        config = RunConfig(
            projection_curve=values["projection_curve"],
            discount_curve=values["discount_curve"],
            quotes=values["quotes"],
            strike_bp=float(values["strike_bp"]),
            tenor_months=int(values["tenor_months"]),
            method=values["method"],
            family=values["family"],
            beta=float(values["beta"]),
            nodes=values["nodes"],
            positivity=positivity,
            floor_bp=floor_bp,
            outliers=values["outliers"],
            mad_threshold=float(values["mad_threshold"]),
            far_quote_months=far_months,
            far_quote_vol_bp=far_vol_bp,
            curve_interp=values["curve_interp"],
            strict=bool(values["strict"]),
            out_dir=values["out"],
        )
        code = run_pipeline(config)
    except (InputError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(code)


@main.command()
@_market_options
@click.pass_context
def compare(ctx, **values):
    """Reprice-error table across the nine standard configurations."""
    try:
        _require_paths(values)
        schedule, quotes = _load_market(
            RunConfig(
                projection_curve=values["projection_curve"],
                discount_curve=values["discount_curve"],
                quotes=values["quotes"],
                strike_bp=float(values["strike_bp"]),
                tenor_months=int(values["tenor_months"]),
                curve_interp=values["curve_interp"],
            )
        )
        rows = compare_methods(schedule, quotes)
        labels, vols, nodes, errors = zip(*rows)
        text = _csv_rows(
            "method,min_vol_bp,min_node_bp,reprice_err",
            (_text_words, labels),
            (_bp_words, vols),
            (_bp_words, nodes),
            (_text_words, [f"{err:.2e}" for err in errors]),
        )
        _write_files(Path(values["out"]), {"compare.csv": text})
        width = max(len(label) for label, *_ in rows)
        click.echo(f"{'method':<{width}}  {'min vol':>9}  {'min node':>9}  reprice err")
        for label, vol, node, err in rows:
            click.echo(f"{label:<{width}}  {vol:>9.2f}  {node:>9.2f}  {err:.2e}")
    except (InputError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
