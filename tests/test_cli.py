"""End-to-end checks of the command line interface.

Everything runs through click's CliRunner against the bundled fixture
market, so the focus here is flag parsing, artifact layout, and exit
codes; the numerical engines have their own suites.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from capstrip import (
    CapQuoteSet,
    StripConfig,
    ZeroCurve,
    bootstrap_sequential,
    build_schedule,
    strip_global,
)
from capstrip.cli import RunConfig, evaluated_curve, main, run_pipeline

DATA = Path(__file__).parent / "data"
ARTIFACTS = ("diagnostics.csv", "outliers.csv", "strip.csv", "strip.json", "volcurve_daily.csv")


def _market_args():
    return [
        "--projection-curve", str(DATA / "libor1m_zero_curve.csv"),
        "--discount-curve", str(DATA / "ois_zero_curve.csv"),
        "--quotes", str(DATA / "cap_quotes.csv"),
    ]


def _invoke(args):
    return CliRunner().invoke(main, args)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One default bootstrap run with outlier removal, shared read-only."""
    out = tmp_path_factory.mktemp("run")
    result = _invoke(["run", *_market_args(), "--outliers", "remove", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out, result


def test_run_writes_all_artifacts(run_dir):
    out, result = run_dir
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    assert result.stdout.startswith("bootstrap: 11 quotes used, max residual ")
    assert str(out) in result.stdout


def test_strip_csv_covers_every_fixing(run_dir):
    out, _ = run_dir
    lines = (out / "strip.csv").read_text().splitlines()
    assert lines[0] == "fixing_months,caplet_vol_bp"
    assert len(lines) == 180
    months = [int(line.split(",")[0]) for line in lines[1:]]
    assert months == list(range(1, 180))
    for line in lines[1:]:
        vol = line.split(",")[1]
        assert len(vol.split(".")[1]) == 4
        assert float(vol) >= 0.0


def test_strip_json_reports_the_run(run_dir):
    out, _ = run_dir
    payload = json.loads((out / "strip.json").read_text())
    assert payload["method"] == "bootstrap"
    assert payload["converged"] is True
    assert payload["stop_reason"] == "priced"
    # outlier removal happens upstream of the engine (see outliers.csv),
    # so the engine-level arbitrage filter has nothing left to drop
    assert payload["removed_months"] == []
    assert payload["clamped_months"] == []
    assert payload["quote_months"] == [2, 4, 5, 6, 9, 12, 36, 60, 84, 120, 180]
    assert len(payload["residuals_bp"]) == len(payload["market_prices_bp"]) == 11
    assert max(abs(r) for r in payload["residuals_bp"]) < 1e-9
    assert payload["config"]["family"] == "flat"
    assert payload["config"]["far_quote_vol_bp"] is None  # NaN must not leak into JSON


def test_daily_curve_follows_the_node_steps(run_dir):
    out, _ = run_dir
    payload = json.loads((out / "strip.json").read_text())
    lines = (out / "volcurve_daily.csv").read_text().splitlines()
    assert lines[0] == "t_years,caplet_vol_bp"
    # one row per day out to the last fixing at 179 months
    assert len(lines) - 1 == math.floor(179 / 12 * 365)
    first_t, first_vol = lines[1].split(",")
    last_t, last_vol = lines[-1].split(",")
    assert first_t == f"{1 / 365:.6f}"
    # flat family: the sampled curve starts and ends on the node values
    assert float(first_vol) == pytest.approx(payload["node_values_bp"][0], abs=1e-4)
    assert float(last_vol) == pytest.approx(payload["node_values_bp"][-1], abs=1e-4)
    assert all(float(line.split(",")[1]) >= 0.0 for line in lines[1:])


def test_report_policy_keeps_flagged_quotes(tmp_path):
    result = _invoke(["run", *_market_args(), "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert result.stdout.startswith("bootstrap: 13 quotes used")
    lines = (tmp_path / "outliers.csv").read_text().splitlines()
    assert lines[0] == "maturity_months,flat_vol_bp,score,flagged"
    flagged = [int(l.split(",")[0]) for l in lines[1:] if l.split(",")[3] == "1"]
    assert flagged == [3, 24]
    # kept quotes include the bad ones, so some caps need clamped nodes
    payload = json.loads((tmp_path / "strip.json").read_text())
    assert payload["clamped_months"] == [4, 5, 6, 24]
    assert payload["converged"] is False
    assert payload["stop_reason"] == "clamped"


def test_strict_mode_stops_on_violations(tmp_path):
    out = tmp_path / "out"
    result = _invoke(
        ["run", *_market_args(), "--outliers", "off", "--strict", "--out", str(out)]
    )
    assert result.exit_code == 2
    assert "4M" in result.stderr and "24M" in result.stderr
    assert "strict mode" in result.stderr
    # diagnostics are still useful; nothing downstream is written
    assert sorted(p.name for p in out.iterdir()) == ["diagnostics.csv"]


def test_missing_input_file_exits_one(tmp_path):
    out = tmp_path / "out"
    result = _invoke([
        "run",
        "--projection-curve", str(DATA / "libor1m_zero_curve.csv"),
        "--discount-curve", str(DATA / "ois_zero_curve.csv"),
        "--quotes", str(tmp_path / "missing.csv"),
        "--out", str(out),
    ])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ")
    assert not out.exists()  # inputs are parsed before anything is written


def test_malformed_quote_cell_is_located(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("maturity_months,flat_vol_bp\n12,70\n24,oops\n")
    out = tmp_path / "out"
    result = _invoke([
        "run",
        "--projection-curve", str(DATA / "libor1m_zero_curve.csv"),
        "--discount-curve", str(DATA / "ois_zero_curve.csv"),
        "--quotes", str(bad),
        "--out", str(out),
    ])
    assert result.exit_code == 1
    assert "line 3" in result.stderr
    assert "flat_vol_bp" in result.stderr
    assert "oops" in result.stderr
    assert not out.exists()


def test_unknown_method_is_rejected(tmp_path):
    out = tmp_path / "out"
    result = _invoke(["run", *_market_args(), "--method", "newton", "--out", str(out)])
    assert result.exit_code == 1
    assert not out.exists()


def test_strike_floor_is_validated(tmp_path):
    result = _invoke(["run", *_market_args(), "--strike-bp", "-2000", "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "strike" in result.stderr


def test_runs_are_deterministic(tmp_path):
    args = ["run", *_market_args(), "--outliers", "remove", "--method", "global",
            "--family", "linear", "--nodes", "mid"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert _invoke([*args, "--out", str(a)]).exit_code == 0
    assert _invoke([*args, "--out", str(b)]).exit_code == 0
    for name in ARTIFACTS:
        if name == "strip.json":
            continue  # config echo embeds the output path
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ja = json.loads((a / "strip.json").read_text())
    jb = json.loads((b / "strip.json").read_text())
    ja["config"].pop("out_dir")
    jb["config"].pop("out_dir")
    assert ja == jb


def test_config_file_fills_defaults_but_flags_win(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "projection_curve": str(DATA / "libor1m_zero_curve.csv"),
        "discount_curve": str(DATA / "ois_zero_curve.csv"),
        "quotes": str(DATA / "cap_quotes.csv"),
        "method": "global",
        "family": "hyman",
        "nodes": "mid",
        "outliers": "remove",
    }))
    out = tmp_path / "out"
    result = _invoke(["run", "--config", str(cfg), "--family", "linear", "--out", str(out)])
    assert result.exit_code == 0, result.output
    echo = json.loads((out / "strip.json").read_text())["config"]
    assert echo["method"] == "global"  # from the config file
    assert echo["family"] == "linear"  # explicit flag beats the file
    assert echo["nodes"] == "mid"
    assert result.stdout.startswith("global: 11 quotes used")


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"familly": "linear"}))
    result = _invoke(["run", *_market_args(), "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "familly" in result.stderr


def test_far_quote_extends_the_curve(tmp_path):
    result = _invoke([
        "run", *_market_args(), "--outliers", "remove",
        "--far-quote", "600:80", "--out", str(tmp_path),
    ])
    assert result.exit_code == 0
    assert result.stdout.startswith("bootstrap: 12 quotes used")
    payload = json.loads((tmp_path / "strip.json").read_text())
    assert payload["quote_months"][-1] == 600
    assert payload["config"]["far_quote_vol_bp"] == 80.0
    lines = (tmp_path / "volcurve_daily.csv").read_text().splitlines()
    assert len(lines) - 1 == math.floor(599 / 12 * 365)


def test_pipeline_api_matches_the_command(run_dir, tmp_path, capsys):
    out, _ = run_dir
    code = run_pipeline(RunConfig(
        projection_curve=str(DATA / "libor1m_zero_curve.csv"),
        discount_curve=str(DATA / "ois_zero_curve.csv"),
        quotes=str(DATA / "cap_quotes.csv"),
        outliers="remove",
        out_dir=str(tmp_path),
    ))
    capsys.readouterr()
    assert code == 0
    via_cli = json.loads((out / "strip.json").read_text())
    via_api = json.loads((tmp_path / "strip.json").read_text())
    via_cli["config"].pop("out_dir")
    via_api["config"].pop("out_dir")
    assert via_api == via_cli


def test_compare_writes_the_table(tmp_path):
    result = _invoke(["compare", *_market_args(), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0] == "method,min_vol_bp,min_node_bp,reprice_err"
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == [
        "flat at maturity",
        "linear at maturity",
        "cubic at maturity",
        "linear mid",
        "cubic mid",
        "hyman mid",
        "hyman mid floor=10",
        "linear exp mid",
        "cubic exp mid",
    ]
    # stdout table mirrors the file: header plus one row per configuration
    table = result.stdout.splitlines()
    assert len(table) == 10
    assert table[0].split()[:2] == ["method", "min"]
    floored = dict(zip(labels, (line.split(",")[2] for line in lines[1:])))
    assert float(floored["hyman mid floor=10"]) == pytest.approx(10.0, abs=1e-6)


def _assert_rejected(result, out):
    assert result.exit_code == 1, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("bad_row", ["12,nan", "12,-5", "12,inf", "nan,70"])
def test_non_finite_or_negative_quotes_are_rejected(tmp_path, bad_row):
    rows = (DATA / "cap_quotes.csv").read_text().splitlines()
    rows = [bad_row if row.startswith("12,") else row for row in rows]
    bad = tmp_path / "quotes.csv"
    bad.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    result = _invoke([
        "run",
        "--projection-curve", str(DATA / "libor1m_zero_curve.csv"),
        "--discount-curve", str(DATA / "ois_zero_curve.csv"),
        "--quotes", str(bad),
        "--out", str(out),
    ])
    _assert_rejected(result, out)


def test_non_finite_curve_rate_is_rejected(tmp_path):
    rows = (DATA / "libor1m_zero_curve.csv").read_text().splitlines()
    rows = ["12,nan" if row.startswith("12,") else row for row in rows]
    bad = tmp_path / "libor.csv"
    bad.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    result = _invoke([
        "run",
        "--projection-curve", str(bad),
        "--discount-curve", str(DATA / "ois_zero_curve.csv"),
        "--quotes", str(DATA / "cap_quotes.csv"),
        "--out", str(out),
    ])
    _assert_rejected(result, out)


@pytest.mark.parametrize(
    "flags,word",
    [
        (["--family", "cosine", "--beta", "2"], "beta"),
        (["--mad-threshold", "nan"], "MAD"),
        (["--method", "global", "--positivity", "floor=nan"], "floor"),
        (["--strike-bp", "nan"], "strike"),
    ],
)
def test_out_of_range_flag_writes_nothing(tmp_path, flags, word):
    out = tmp_path / "out"
    result = _invoke(["run", *_market_args(), *flags, "--out", str(out)])
    _assert_rejected(result, out)
    assert word in result.stderr


@pytest.mark.parametrize("method", ["bootstrap", "tv"])
def test_positivity_needs_the_global_method(tmp_path, method):
    out = tmp_path / "out"
    result = _invoke(
        ["run", *_market_args(), "--method", method, "--positivity", "floor=10", "--out", str(out)]
    )
    _assert_rejected(result, out)
    assert "global" in result.stderr


@pytest.mark.parametrize(
    "method,config",
    [
        ("bootstrap", StripConfig(family="linear", positivity="exp")),
        ("global", StripConfig(family="linear", placement="mid", positivity="exp")),
        ("global", StripConfig(family="hyman", placement="mid", positivity="floor", floor_bp=10.0)),
        ("global", StripConfig(family="cubic", placement="mid")),
    ],
)
def test_evaluated_curve_is_the_priced_curve(method, config):
    forward = ZeroCurve.from_csv(DATA / "libor1m_zero_curve.csv")
    discount = ZeroCurve.from_csv(DATA / "ois_zero_curve.csv")
    quotes = CapQuoteSet.from_csv(DATA / "cap_quotes.csv")
    schedule = build_schedule(forward, discount, 180)
    engine = bootstrap_sequential if method == "bootstrap" else strip_global
    result = engine(schedule, quotes, config)
    sampled = evaluated_curve(result)(result.caplet_times)
    np.testing.assert_allclose(sampled, result.caplet_vols, rtol=1e-12, atol=1e-18)
