"""The three workloads: their set-up, fixed operation lists and output checks.

A workload object is built by its set-up (import capstrip, load or
generate the inputs, build the schedules); `operations(p)` returns the
operations of pass p, each a zero-argument call into capstrip plus the
check of its result. Every call looks capstrip's functions up by module
attribute at call time, so the traced run's wrappers see it.
"""

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference
import scenarios

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "data"
FORWARD_CSV = FIXTURES / "libor1m_zero_curve.csv"
DISCOUNT_CSV = FIXTURES / "ois_zero_curve.csv"
QUOTES_CSV = FIXTURES / "cap_quotes.csv"
MAD_OUTLIERS = (3, 24)  # the fixture quotes capstrip's MAD scores flag

# Repricing tolerances, in bp of notional. The reference and capstrip price
# the same caplets by different float64 formulas, which agree to tens of
# ulps of a cap price (AGREE_REL allows about 4500); capstrip's own
# solvers stop at 1e-10 bp, inside EXACT_BP.
AGREE_REL = 1e-12
EXACT_BP = 1e-9
# Written caplet vols carry 4 decimals in bp.
WRITTEN_VOL_STEP = 0.5e-4 * 1e-4


class CheckFailed(Exception):
    """An output that disagrees with the reference or a property it must have."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Operation:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def import_program():
    """Import capstrip from the checkout's sources."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import capstrip

    return capstrip


def fixture_curve(path):
    months, pct = reference.read_pairs(path)
    return months, pct / 100.0


def fixture_market(quote_months):
    """Reference grid, caplet counts and market prices for fixture quotes."""
    months, vols_bp = reference.read_pairs(QUOTES_CSV)
    keep = np.isin(months, quote_months)
    grid = reference.build_grid(
        fixture_curve(FORWARD_CSV), fixture_curve(DISCOUNT_CSV), int(max(months)), 1
    )
    vols = vols_bp[keep] * 1e-4
    counts = [grid.count(m) for m in months[keep]]
    prices = np.array([reference.flat_cap_price(grid, 0.0, n, v) for n, v in zip(counts, vols)])
    return grid, counts, prices


def check_repricing(result, grid, months, prices, exact):
    """Reprice a StripResult's caplet vols with the reference pricer.

    The reference residuals must agree with the ones capstrip reports and,
    for configurations that promise an exact fit, be float64-small.
    """
    vols = np.asarray(result.caplet_vols, dtype=float)
    require(np.all(np.isfinite(vols)), "non-finite caplet vol")
    require(np.all(vols >= 0.0), f"negative caplet vol {vols.min():.3e}")
    require(np.all(np.isfinite(result.residuals_bp)), "non-finite residual")
    used = np.isin(months, result.quote_months)
    require(used.sum() == len(result.quote_months), "result quotes are not fixture quotes")
    counts = [grid.count(m) for m in result.quote_months]
    require(len(vols) == max(counts), "caplet vols do not cover the ladder")
    market_bp = prices[used] * 1e4
    model_bp = reference.cap_prices(grid, 0.0, counts, vols) * 1e4
    ref_residual = model_bp - market_bp
    gap = np.abs(ref_residual - result.residuals_bp)
    require(
        np.all(gap <= AGREE_REL * market_bp + EXACT_BP),
        f"reported residuals off the reference by {gap.max():.3e} bp",
    )
    if exact:
        worst = np.max(np.abs(ref_residual))
        require(worst <= EXACT_BP + AGREE_REL * market_bp.max(), f"misprices by {worst:.3e} bp")


# clean-grid configurations: (label, engine, StripConfig keywords)
RAMP_FAMILIES = ("flat-linear", "flat-smooth", "cosine", "quintic")
BOOTSTRAP_FAMILIES = ("flat",) + RAMP_FAMILIES + ("linear", "cubic", "hyman")
POSITIVITY = (("none", {}), ("nonneg", {}), ("exp", {}), ("floor10", {"floor_bp": 10.0}))
CLEAN_CONFIGS = (
    (("tv", "tv", {}),)
    + tuple(
        (f"bootstrap.maturity.{family}", "bootstrap", {"family": family})
        for family in BOOTSTRAP_FAMILIES
    )
    + tuple(
        (
            f"global.mid.{family}.{mode}",
            "global",
            dict(family=family, placement="mid", positivity=mode.rstrip("0123456789"), **extra),
        )
        for family in ("linear", "cubic", "hyman")
        for mode, extra in POSITIVITY
    )
)
# at-maturity bootstrap cubic and hyman make no exact-fit promise; floors move nodes
INEXACT = {"bootstrap.maturity.cubic", "bootstrap.maturity.hyman"} | {
    label for label, _, _ in CLEAN_CONFIGS if label.endswith("floor10")
}


def config_label(engine, config):
    """The label the benchmark gives an engine call, from its configuration."""
    if engine == "tv":
        return "tv"
    if engine == "bootstrap":
        return f"bootstrap.{config.placement}.{config.family}"
    mode = config.positivity
    if mode == "floor":
        mode = f"floor{config.floor_bp:g}"
    return f"global.{config.placement}.{config.family}.{mode}"


def run_engine(capstrip, engine, schedule, quotes, config):
    stripping = capstrip.stripping
    if engine == "tv":
        return stripping.strip_time_value(schedule, quotes, config)
    if engine == "bootstrap":
        return stripping.bootstrap_sequential(schedule, quotes, config)
    return stripping.strip_global(schedule, quotes, config)


def load_fixture(capstrip, drop=()):
    term = capstrip.term_structures
    forward = term.ZeroCurve.from_csv(FORWARD_CSV)
    discount = term.ZeroCurve.from_csv(DISCOUNT_CSV)
    quotes = capstrip.diagnostics.CapQuoteSet.from_csv(QUOTES_CSV)
    if drop:
        quotes = quotes.drop(drop)
    schedule = term.build_schedule(forward, discount, int(quotes.maturities_months[-1]))
    return schedule, quotes


class CleanGrid:
    """21 configurations on the fixture ladder without its MAD outliers."""

    name = "clean-grid"

    def __init__(self, seed, workdir):
        self.capstrip = import_program()
        self.schedule, self.quotes = load_fixture(self.capstrip, drop=MAD_OUTLIERS)
        self.configs = [
            (label, engine, self.capstrip.stripping.StripConfig(**kwargs))
            for label, engine, kwargs in CLEAN_CONFIGS
        ]
        self._market = None
        self._flat_nodes = None

    def operations(self, pass_index):
        return [
            Operation(label, self._runner(engine, config), self._checker(label))
            for label, engine, config in self.configs
        ]

    def _runner(self, engine, config):
        return lambda: run_engine(self.capstrip, engine, self.schedule, self.quotes, config)

    def _checker(self, label):
        def check(result):
            if self._market is None:
                self._market = fixture_market(self.quotes.maturities_months)
            grid, _, prices = self._market
            check_repricing(result, grid, self.quotes.maturities_months, prices, label not in INEXACT)
            nodes = np.asarray(result.node_values, dtype=float)
            if label == "bootstrap.maturity.flat":
                self._flat_nodes = nodes
            if label.startswith("bootstrap.maturity.") and label.endswith(RAMP_FAMILIES):
                require(self._flat_nodes is not None, "no flat bootstrap to compare with")
                gap = np.max(np.abs(nodes - self._flat_nodes))
                require(gap <= 1e-12, f"ramp nodes differ from flat nodes by {gap:.3e}")
            if label.endswith("floor10"):
                require(nodes.min() >= 10e-4, f"floored node at {nodes.min() * 1e4:.4f} bp")

        return check


# Five of the nine standard rows of `capstrip compare`, in their order. The
# global rows stall at max_iter=200 on this ladder. The other four rows
# (cubic mid, hyman mid, hyman mid floor=10, cubic exp mid) take 1-4 s
# each on a 2-vCPU shared VM, so a 30 s run times them about four times,
# and their pass time moved by 26% between runs: they are left out for that.
COMPARE_ROWS = (
    ("flat at maturity", "bootstrap", {"family": "flat"}),
    ("linear at maturity", "bootstrap", {"family": "linear"}),
    ("cubic at maturity", "bootstrap", {"family": "cubic"}),
    ("linear mid", "global", {"family": "linear", "placement": "mid"}),
    ("linear exp mid", "global", {"family": "linear", "placement": "mid", "positivity": "exp"}),
)
# The global rows minimise the same squared relative errors as the L2
# isotonic fit; they must land within this share of its worst error.
ISOTONIC_MARGIN = 0.02


class RawCompare:
    """`compare_methods` on the raw fixture ladder, one standard row per call.

    Each row is its own operation, timed on its own; calling the rows one
    by one does the same work as one call with all of them.
    """

    name = "raw-compare"

    def __init__(self, seed, workdir):
        self.capstrip = import_program()
        self.schedule, self.quotes = load_fixture(self.capstrip)
        config_cls = self.capstrip.stripping.StripConfig
        self.rows = [(label, engine, config_cls(**kw)) for label, engine, kw in COMPARE_ROWS]
        self._bounds = None

    def operations(self, pass_index):
        return [
            Operation(
                config_label(engine, config),
                self._runner((label, engine, config)),
                self._checker(label, engine),
            )
            for label, engine, config in self.rows
        ]

    def _runner(self, row):
        return lambda: self.capstrip.cli.compare_methods(self.schedule, self.quotes, [row])

    def bounds(self):
        """(L-infinity bound, L2 isotonic worst error) of the raw ladder."""
        if self._bounds is None:
            months = self.quotes.maturities_months
            grid, counts, prices = fixture_market(months)
            tv = prices - reference.intrinsic_values(grid, 0.0, counts)
            self._bounds = (
                reference.isotonic_linf_bound(tv, prices),
                reference.isotonic_worst_error(tv, prices),
            )
        return self._bounds

    def _checker(self, label, engine):
        def check(rows):
            require(len(rows) == 1, f"{len(rows)} rows for one configuration")
            got_label, min_vol_bp, min_node_bp, error = rows[0]
            require(got_label == label, f"row labelled {got_label!r}, expected {label!r}")
            require(all(map(math.isfinite, (min_vol_bp, min_node_bp, error))), "non-finite row")
            require(min_vol_bp >= 0.0, f"negative min vol {min_vol_bp}")
            linf, l2_worst = self.bounds()
            require(error >= linf * (1.0 - 1e-9), f"error {error:.6e} below the bound {linf:.6e}")
            if engine == "global":
                require(
                    abs(error - l2_worst) <= ISOTONIC_MARGIN * l2_worst,
                    f"error {error:.6e} not within {ISOTONIC_MARGIN:.0%} of {l2_worst:.6e}",
                )

        return check


class PipelineBatch:
    """`run_pipeline` end to end on the seeded synthetic markets of scenarios.SLOTS."""

    name = "pipeline-batch"

    def __init__(self, seed, workdir):
        self.capstrip = import_program()
        self.seed = seed
        self.workdir = Path(workdir)
        self._pass = None
        self._prepare(0)

    def _prepare(self, pass_index):
        if self._pass == pass_index:
            return
        self.scenarios = []
        for index in range(len(scenarios.SLOTS)):
            scenario = scenarios.generate(
                self.seed, index, pass_index, self.workdir / f"slot{index:02d}"
            )
            scenarios.assert_no_violations(self.capstrip, scenario)
            self.scenarios.append(scenario)
        self._pass = pass_index

    def operations(self, pass_index):
        self._prepare(pass_index)
        return [
            Operation(f"slot{index:02d}", self._runner(scenario), self._checker(scenario))
            for index, scenario in enumerate(self.scenarios)
        ]

    def _runner(self, scenario):
        config = scenario.run_config(self.capstrip.cli.RunConfig)

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.capstrip.cli.run_pipeline(config)

        return run

    def _checker(self, scenario):
        def check(code):
            require(code == 0, f"exit code {code}")
            check_artifacts(scenario)

        return check


def _reject_constant(name):
    raise CheckFailed(f"strip.json holds {name}")


def check_artifacts(scenario):
    """Check a pipeline run's files against the scenario that produced it."""
    out = scenario.out_dir
    for name in ("diagnostics.csv", "outliers.csv", "strip.csv", "volcurve_daily.csv"):
        require((out / name).is_file(), f"{name} missing")
    record = json.loads((out / "strip.json").read_text(), parse_constant=_reject_constant)
    slot = scenario.slot
    grid = scenario.grid
    strike = slot.strike_bp * 1e-4
    months = np.asarray(record["quote_months"])
    require(np.array_equal(months, scenario.quote_months), f"stripped ladder {months}")
    counts = [grid.count(m) for m in months]
    fixing_months, vols_bp = reference.read_pairs(out / "strip.csv")
    require(len(vols_bp) == max(counts), "strip.csv does not cover every fixing")
    require(
        np.array_equal(fixing_months, np.arange(1, max(counts) + 1) * slot.tenor_months),
        "strip.csv fixing months",
    )
    require(np.all(np.isfinite(vols_bp)) and np.all(vols_bp >= 0.0), "bad written vol")

    market = np.array(
        [reference.flat_cap_price(grid, strike, n, v) for n, v in zip(counts, scenario.flat_vols)]
    )
    model = reference.cap_prices(grid, strike, counts, vols_bp * 1e-4)
    residual_bp = (model - market) * 1e4
    allowed_bp = (
        reference.vol_rounding_bound(grid, counts, WRITTEN_VOL_STEP) * 1e4
        + AGREE_REL * market * 1e4
        + EXACT_BP
    )
    reported_bp = np.asarray(record["residuals_bp"])
    gap = np.abs(residual_bp - reported_bp)
    require(np.all(gap <= allowed_bp), f"written vols reprice {np.max(gap - allowed_bp):.3e} bp off")
    if record["converged"]:
        require(np.all(np.abs(residual_bp) <= allowed_bp), "converged run misprices")

    if slot.method == "bootstrap" and slot.family == "flat":
        check_node_recovery(record, scenario, market)


def check_node_recovery(record, scenario, market):
    """A flat bootstrap on at-maturity nodes must give back the generating nodes.

    Node k only prices the caplets between caps k-1 and k, so a price error
    of AGREE_REL on both caps moves it by at most that error over the
    segment's vega.
    """
    grid, strike = scenario.grid, scenario.slot.strike_bp * 1e-4
    truth = scenario.node_values
    counts = [grid.count(m) for m in scenario.quote_months[: len(truth)]]
    starts = np.concatenate(([0], counts[:-1]))
    n = counts[-1]
    vegas = reference.caplet_vegas(
        grid.forwards[:n],
        strike,
        grid.fixing_times[:n],
        grid.accruals[:n],
        grid.discounts[:n],
        np.repeat(truth, np.diff(np.concatenate(([0], counts)))),
    )
    prices = market[: len(truth)]
    allowed = AGREE_REL * (prices + np.concatenate(([0.0], prices[:-1])))
    allowed /= np.add.reduceat(vegas, starts)
    nodes = np.asarray(record["node_values_bp"][: len(truth)]) * 1e-4
    gap = np.abs(nodes - truth)
    require(np.all(gap <= allowed), f"nodes off by {np.max(gap / allowed):.3g} of the allowance")


WORKLOADS = {cls.name: cls for cls in (CleanGrid, RawCompare, PipelineBatch)}
