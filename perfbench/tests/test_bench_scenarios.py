"""The pipeline-batch generator: seeded, fixed in shape, free of violations."""

import numpy as np
import pytest

import reference
import scenarios
import workloads

FILES = ("projection.csv", "discount.csv", "quotes.csv")


def test_same_seed_same_files(tmp_path):
    for index in range(len(scenarios.SLOTS)):
        first = scenarios.generate(3, index, 2, tmp_path / "a")
        second = scenarios.generate(3, index, 2, tmp_path / "b")
        for name in FILES:
            assert (first.directory / name).read_bytes() == (second.directory / name).read_bytes()


def test_passes_redraw_levels_but_keep_the_shape(tmp_path):
    for index in range(len(scenarios.SLOTS)):
        first = scenarios.generate(3, index, 0, tmp_path / "a")
        second = scenarios.generate(3, index, 1, tmp_path / "b")
        assert np.array_equal(first.quote_months, second.quote_months)
        assert not np.array_equal(first.flat_vols, second.flat_vols)
        assert (first.directory / "projection.csv").read_bytes() != (
            second.directory / "projection.csv"
        ).read_bytes()


@pytest.mark.parametrize("slot", scenarios.SLOTS)
def test_quote_ladders_fit_the_slot(slot):
    months = scenarios.quote_months(slot)
    assert len(months) == slot.quotes
    assert np.all(np.diff(months) > 0)
    assert np.all(months % slot.tenor_months == 0)
    assert months[0] >= 2 * slot.tenor_months
    assert months[-1] == 12 * slot.horizon_years


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_ladders_have_no_violations(seed, tmp_path):
    capstrip = workloads.import_program()
    for index in range(len(scenarios.SLOTS)):
        scenario = scenarios.generate(seed, index, seed, tmp_path / f"s{index}")
        scenarios.assert_no_violations(capstrip, scenario)


def test_flat_vols_reprice_the_generating_curve(tmp_path):
    scenario = scenarios.generate(4, 0, 0, tmp_path)
    grid, strike = scenario.grid, scenario.slot.strike_bp * 1e-4
    counts = [grid.count(m) for m in scenario.quote_months]
    caplet_nodes = np.repeat(scenario.node_values, np.diff(np.concatenate(([0], counts))))
    curve_prices = reference.cap_prices(grid, strike, counts, caplet_nodes)
    flat_prices = [
        reference.flat_cap_price(grid, strike, n, v) for n, v in zip(counts, scenario.flat_vols)
    ]
    assert flat_prices == pytest.approx(curve_prices, rel=1e-13)
