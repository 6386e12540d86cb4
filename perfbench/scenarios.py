"""Seeded synthetic markets for the pipeline-batch workload.

Each slot of SLOTS is one `run_pipeline` call with a fixed shape: quote
count, horizon, tenor, strike, curve interpolation, method and options.
A pass redraws only the rate level and the vol level of every slot, from
the seed and the pass number, so no two operations share inputs while
each slot costs about the same from pass to pass.

Quotes come from a known piecewise-constant caplet vol curve with a node
at the last fixing of each cap: the reference pricer prices every cap on
that curve and the flat-vol inverter turns the prices into the quoted
flat vols. Such a ladder has no arbitrage violation; `generate` asserts
that capstrip's `decompose` agrees. capstrip receives only the CSVs.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

# Pillars of both zero curves, in months; they reach past every far quote.
PILLAR_MONTHS = np.array([0, 1, 3, 6, 12, 24, 36, 60, 84, 120, 180, 240, 360, 480, 600])
DISCOUNT_SPREAD = 0.002  # the discount curve sits 20 bp below the projection curve


@dataclass(frozen=True)
class Slot:
    """The fixed shape of one pipeline run."""

    quotes: int
    horizon_years: int
    tenor_months: int
    strike_bp: float
    curve_interp: str
    method: str
    family: str = "flat"
    nodes: str = "maturity"
    positivity: str = "none"
    floor_bp: float = 0.0
    far_quote_months: int = 0


SLOTS = (
    Slot(12, 10, 1, 0.0, "loglinear", "bootstrap", "flat"),
    Slot(20, 15, 3, 100.0, "cubic", "global", "cubic", "mid"),
    Slot(30, 30, 1, 200.0, "loglinear", "tv"),
    Slot(10, 5, 3, -50.0, "cubic", "bootstrap", "flat-smooth"),
    Slot(40, 30, 3, 400.0, "loglinear", "global", "linear", "mid", "nonneg", far_quote_months=480),
    Slot(50, 30, 1, 50.0, "cubic", "bootstrap", "flat"),
    Slot(15, 10, 1, 0.0, "loglinear", "global", "hyman", "mid", "exp"),
    Slot(10, 5, 1, 400.0, "cubic", "tv", far_quote_months=120),
    Slot(25, 20, 3, 150.0, "loglinear", "bootstrap", "linear"),
    Slot(30, 20, 1, -25.0, "cubic", "global", "linear", "maturity", "floor", 10.0),
    Slot(45, 30, 1, 100.0, "loglinear", "global", "cubic", "mid"),
)


def quote_months(slot):
    """Maturities spread geometrically over the horizon, on the tenor grid."""
    tenor = slot.tenor_months
    grid = np.arange(2 * tenor, 12 * slot.horizon_years + 1, tenor)
    if slot.quotes > len(grid):
        raise ValueError("more quotes than maturities on the tenor grid")
    picks = np.rint(np.geomspace(1, len(grid), slot.quotes)).astype(int) - 1
    for k in range(1, slot.quotes):
        picks[k] = max(picks[k], picks[k - 1] + 1)
    for k in range(slot.quotes - 2, -1, -1):
        picks[k] = min(picks[k], picks[k + 1] - 1)
    return grid[picks]


def node_shape(months):
    """A humped vol term structure peaking near two years, relative to 1."""
    years = np.asarray(months, dtype=float) / 12.0
    return 0.7 + 0.6 * (years / 2.0) * np.exp(1.0 - years / 2.0)


@dataclass
class Scenario:
    """One generated market: the files capstrip reads and what the checks need."""

    slot: Slot
    directory: Path
    quotes_path: Path
    projection_path: Path
    discount_path: Path
    out_dir: Path
    grid: reference.Grid
    quote_months: np.ndarray  # ladder as stripped, far quote included
    flat_vols: np.ndarray  # decimal, as capstrip parses them
    node_values: np.ndarray  # generating caplet curve, one node per market quote

    def run_config(self, config_cls):
        """The RunConfig for this scenario (passed in, to keep this module program-free)."""
        slot = self.slot
        return config_cls(
            projection_curve=str(self.projection_path),
            discount_curve=str(self.discount_path),
            quotes=str(self.quotes_path),
            strike_bp=slot.strike_bp,
            tenor_months=slot.tenor_months,
            method=slot.method,
            family=slot.family,
            nodes=slot.nodes,
            positivity=slot.positivity,
            floor_bp=slot.floor_bp,
            far_quote_months=slot.far_quote_months,
            curve_interp=slot.curve_interp,
            out_dir=str(self.out_dir),
        )


def _write_pairs(path, header, first, second):
    lines = [header] + [f"{int(a)},{float(b)!r}" for a, b in zip(first, second)]
    path.write_text("\n".join(lines) + "\n")


def generate(seed, slot_index, pass_index, directory):
    """Write one slot's market for one pass under directory and describe it."""
    slot = SLOTS[slot_index]
    rng = np.random.default_rng([seed, slot_index, pass_index])
    # short rates from 25 bp below to 50 bp above the strike, negative for
    # negative strikes: much deeper in the money, a short caplet's time
    # value falls below the float64 resolution of its price
    rate_level = slot.strike_bp * 1e-4 + rng.uniform(-0.0025, 0.005)
    vol_level = rng.uniform(0.0060, 0.0110)

    years = PILLAR_MONTHS / 12.0
    projection_pct = 100.0 * (rate_level + 0.01 * (1.0 - np.exp(-years / 5.0)))
    discount_pct = projection_pct - 100.0 * DISCOUNT_SPREAD
    months = quote_months(slot)
    nodes = vol_level * node_shape(months)

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    projection_path = directory / "projection.csv"
    discount_path = directory / "discount.csv"
    _write_pairs(projection_path, "maturity_months,zero_rate_pct", PILLAR_MONTHS, projection_pct)
    _write_pairs(discount_path, "maturity_months,zero_rate_pct", PILLAR_MONTHS, discount_pct)
    # read back what capstrip will read, so both sides price the same numbers
    projection = reference.read_pairs(projection_path)
    discount = reference.read_pairs(discount_path)
    last = max(int(months[-1]), slot.far_quote_months)
    grid = reference.build_grid(
        (projection[0], projection[1] / 100.0),
        (discount[0], discount[1] / 100.0),
        last,
        slot.tenor_months,
        slot.curve_interp,
    )

    counts = [grid.count(m) for m in months]
    caplet_nodes = np.repeat(nodes, np.diff(np.concatenate(([0], counts))))
    strike = slot.strike_bp * 1e-4
    prices = reference.cap_prices(grid, strike, counts, caplet_nodes)
    vols_bp = [1e4 * reference.flat_vol(grid, strike, n, p) for n, p in zip(counts, prices)]
    quotes_path = directory / "quotes.csv"
    _write_pairs(quotes_path, "maturity_months,flat_vol_bp", months, vols_bp)
    flat_vols = reference.read_pairs(quotes_path)[1] * 1e-4

    ladder = months
    if slot.far_quote_months:
        ladder = np.append(months, slot.far_quote_months)
        flat_vols = np.append(flat_vols, flat_vols[-1])
    return Scenario(
        slot=slot,
        directory=directory,
        quotes_path=quotes_path,
        projection_path=projection_path,
        discount_path=discount_path,
        out_dir=directory / "out",
        grid=grid,
        quote_months=ladder,
        flat_vols=flat_vols,
        node_values=nodes,
    )


def assert_no_violations(capstrip, scenario):
    """capstrip's own decomposition must find the generated ladder arbitrage-free."""
    slot = scenario.slot
    forward = capstrip.ZeroCurve.from_csv(scenario.projection_path, interp=slot.curve_interp)
    discount = capstrip.ZeroCurve.from_csv(scenario.discount_path, interp=slot.curve_interp)
    quotes = capstrip.CapQuoteSet.from_csv(scenario.quotes_path, strike=slot.strike_bp * 1e-4)
    schedule = capstrip.build_schedule(
        forward, discount, int(quotes.maturities_months[-1]), slot.tenor_months
    )
    violations = capstrip.decompose(schedule, quotes).violations
    if violations:
        raise AssertionError(f"generated ladder has violations at {violations}")
