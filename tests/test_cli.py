"""End-to-end checks of the command line interface.

Everything runs through click's CliRunner against the bundled fixture
market, so the focus here is flag parsing, artifact layout, and exit
codes; the numerical engines have their own suites.
"""

import io
import json
import math
import os
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from capstrip import (
    FAMILIES,
    CapQuoteSet,
    StripConfig,
    StripResult,
    VolCurve,
    ZeroCurve,
    bootstrap_sequential,
    build_schedule,
    decompose,
    detect_outliers,
    strip_global,
    strip_time_value,
)
from capstrip import cli
from capstrip.cli import (
    RunConfig,
    compare_methods,
    _daily_curve_text,
    _diagnostics_text,
    _outliers_text,
    _strip_csv_text,
    evaluated_curve,
    main,
    run_pipeline,
)
from capstrip.diagnostics import DiagnosticsReport, OutlierReport

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
    # a ladder without arbitrage has a zero floor, and its gap is the cost
    assert payload["floor_cost"] == 0.0
    assert 0.0 <= payload["gap_to_floor"] < 1e-20
    assert payload["node_log_vols"] is None  # written under exp only


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
    assert payload["floor_cost"] == pytest.approx(3.157460106544535e-5, rel=1e-12)
    assert payload["gap_to_floor"] > 0.0


def test_global_run_states_its_floor_stop(tmp_path):
    args = ["run", *_market_args(), "--method", "global", "--family", "linear", "--nodes", "mid"]
    assert _invoke([*args, "--out", str(tmp_path)]).exit_code == 0
    payload = json.loads((tmp_path / "strip.json").read_text())
    assert payload["stop_reason"] == "floor"
    assert payload["converged"] is False
    assert 0.0 <= payload["gap_to_floor"] <= 1e-9 * payload["floor_cost"]


@pytest.mark.parametrize("family", ["quintic", "cubic"])
def test_exp_daily_curve_rebuilds_from_strip_json(tmp_path, family):
    """Under exp, strip.json's node log-vols rebuild the daily curve alone,
    to the printed digit. The capped exponentials in node_values_bp cannot:
    the raw quintic fit solves a log-vol below -1e15, whose vol is 0 bp."""
    args = ["run", *_market_args(), "--method", "global", "--family", family, "--nodes", "mid"]
    assert _invoke([*args, "--positivity", "exp", "--out", str(tmp_path)]).exit_code == 0
    payload = json.loads((tmp_path / "strip.json").read_text())
    lines = (tmp_path / "volcurve_daily.csv").read_text().splitlines()
    days = np.array([round(float(line.split(",")[0]) * 365.0) for line in lines[1:]])
    config = payload["config"]
    curve = VolCurve(
        config["family"], payload["node_times_years"], payload["node_log_vols"],
        beta=config["beta"], delta=config["tenor_months"] / 12.0,
    )
    vols_bp = np.exp(np.minimum(curve(days / 365.0), 3.0)) * 1e4
    assert lines[1:] == [f"{d / 365:.6f},{v:.4f}" for d, v in zip(days, vols_bp)]
    log_vols = np.array(payload["node_log_vols"])
    capped = np.exp(np.minimum(log_vols, 3.0)) * 1e4
    np.testing.assert_allclose(payload["node_values_bp"], capped, rtol=1e-15)
    if family == "quintic":
        assert log_vols.min() < -1e15 and min(payload["node_values_bp"]) == 0.0


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


def test_a_rerun_rewrites_its_artifacts_in_place(tmp_path):
    """Artifacts an earlier run left in the output directory are overwritten
    in place and cut to length with the run's bytes, in the same files: a
    hard link to one reads the new bytes."""
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert _invoke(["run", *_market_args(), "--out", str(fresh)]).exit_code == 0
    reused.mkdir()
    for name in ARTIFACTS:
        (reused / name).write_text("stale\n" * 100_000)
    (tmp_path / "linked.csv").hardlink_to(reused / "strip.csv")
    assert _invoke(["run", *_market_args(), "--out", str(reused)]).exit_code == 0
    for name in ARTIFACTS:
        if name != "strip.json":  # its config echo holds the output path
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    assert (tmp_path / "linked.csv").read_bytes() == (fresh / "strip.csv").read_bytes()


def _run_into(out):
    return _invoke(["run", *_market_args(), "--out", str(out)])


def test_a_rerun_keeps_an_artifacts_mode(tmp_path):
    assert _run_into(tmp_path).exit_code == 0
    (tmp_path / "strip.csv").chmod(0o640)
    assert _run_into(tmp_path).exit_code == 0
    assert stat.S_IMODE((tmp_path / "strip.csv").stat().st_mode) == 0o640


def test_a_rerun_over_shorter_artifacts_writes_a_fresh_runs_bytes(tmp_path):
    assert _run_into(tmp_path).exit_code == 0
    fresh = {name: (tmp_path / name).read_bytes() for name in ARTIFACTS}
    for name in ARTIFACTS:
        (tmp_path / name).write_bytes(b"x")
    assert _run_into(tmp_path).exit_code == 0
    assert {name: (tmp_path / name).read_bytes() for name in ARTIFACTS} == fresh


def test_a_rerun_writes_through_a_symlinked_artifact(tmp_path):
    out, target = tmp_path / "out", tmp_path / "target.csv"
    assert _run_into(out).exit_code == 0
    fresh = (out / "strip.csv").read_bytes()
    target.write_text("stale\n" * 100_000)
    (out / "strip.csv").unlink()
    (out / "strip.csv").symlink_to(target)
    assert _run_into(out).exit_code == 0
    assert (out / "strip.csv").is_symlink()
    assert target.read_bytes() == fresh


def test_a_compare_rerun_cuts_a_longer_table_to_length(tmp_path):
    args = ["compare", *_market_args(), "--out", str(tmp_path)]
    assert _invoke(args).exit_code == 0
    fresh = (tmp_path / "compare.csv").read_bytes()
    (tmp_path / "compare.csv").write_text("stale\n" * 100_000)
    assert _invoke(args).exit_code == 0
    assert (tmp_path / "compare.csv").read_bytes() == fresh


def test_a_rerun_never_cuts_an_artifact_to_zero(tmp_path, monkeypatch):
    """Each artifact a rerun finds is opened through os.open without O_TRUNC,
    and cut only at the end of its new bytes: it never passes through zero
    length."""
    assert _run_into(tmp_path).exit_code == 0
    flags, cuts = {}, []
    real_open = os.open

    def recording_open(path, mode, *args, **kwargs):
        if Path(path).parent == tmp_path:
            flags.setdefault(Path(path).name, []).append(mode)
        return real_open(path, mode, *args, **kwargs)

    class RecordingWriter(io.BufferedWriter):
        def truncate(self, pos=None):
            cuts.append(self.tell() if pos is None else pos)
            return super().truncate(pos)

    monkeypatch.setattr(cli.os, "open", recording_open)
    monkeypatch.setattr(
        cli, "open", lambda fd, mode: RecordingWriter(io.FileIO(fd, "w")), raising=False
    )
    assert _run_into(tmp_path).exit_code == 0
    assert sorted(flags) == sorted(ARTIFACTS)
    assert all(len(opened) == 1 and not opened[0] & os.O_TRUNC for opened in flags.values())
    assert sorted(cuts) == sorted((tmp_path / name).stat().st_size for name in ARTIFACTS)


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


@pytest.mark.parametrize(
    "entry",
    [
        {"strike_bp": "x"},
        {"beta": None},
        {"mad_threshold": [1]},
        {"tenor_months": 1.5},
        {"strict": "false"},
        # integers a float cannot hold
        {"strike_bp": 10**400},
        {"beta": 10**400},
        {"mad_threshold": -(10**400)},
    ],
)
def test_config_value_of_the_wrong_type_writes_nothing(tmp_path, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    out = tmp_path / "out"
    result = _invoke(["run", *_market_args(), "--config", str(cfg), "--out", str(out)])
    _assert_rejected(result, out)
    (key,) = entry
    assert repr(key) in result.stderr


def test_config_integer_past_the_digit_limit_writes_nothing(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"strike_bp": 1' + "0" * 5000 + "}")
    out = tmp_path / "out"
    result = _invoke(["run", *_market_args(), "--config", str(cfg), "--out", str(out)])
    _assert_rejected(result, out)


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


def test_pipeline_takes_path_like_paths(tmp_path, capsys):
    """RunConfig's input paths and out_dir may be os.PathLike: a run given
    Path values writes the bytes a run given their str values writes."""
    out = tmp_path / "out"
    written = []
    for kind in (str, Path):
        code = run_pipeline(RunConfig(
            projection_curve=kind(DATA / "libor1m_zero_curve.csv"),
            discount_curve=kind(DATA / "ois_zero_curve.csv"),
            quotes=kind(DATA / "cap_quotes.csv"),
            out_dir=kind(out),
        ))
        assert code == 0
        written.append({name: (out / name).read_bytes() for name in ARTIFACTS})
    capsys.readouterr()
    assert written[0] == written[1]


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


def test_quotes_priced_past_the_float_range_in_bp_are_rejected(tmp_path):
    """A flat vol of 1e308 bp prices the 180M cap past the float range in
    bp, which no artifact can hold: the run names the quote and writes
    nothing. The 12M cap's price at that vol fits, and its run writes
    strict JSON without a warning."""
    for month, rejected in ((180, True), (12, False)):
        rows = (DATA / "cap_quotes.csv").read_text().splitlines()
        rows = [f"{month},1e308" if row.startswith(f"{month},") else row for row in rows]
        bad = tmp_path / f"quotes{month}.csv"
        bad.write_text("\n".join(rows) + "\n")
        out = tmp_path / f"out{month}"
        for method in ("tv", "bootstrap", "global"):
            result = _invoke([
                "run",
                "--projection-curve", str(DATA / "libor1m_zero_curve.csv"),
                "--discount-curve", str(DATA / "ois_zero_curve.csv"),
                "--quotes", str(bad), "--method", method,
                "--out", str(out),
            ])
            if rejected:
                _assert_rejected(result, out)
                assert result.stderr.rstrip().endswith("in bp: 180M")
            else:
                assert result.exit_code == 0, result.output
                json.loads((out / "strip.json").read_text(), parse_constant=_reject_constant)


def test_tv_states_a_far_quote_it_cannot_reprice(tmp_path):
    """A far quote at 1e305 bp takes the implied-vol bracket past the square
    root of the float range. tv strips it without a warning and writes
    strict JSON, and as no vol reprices that cap it says so: converged
    false, stop_reason approximate."""
    result = _invoke([
        "run", *_market_args(), "--method", "tv", "--far-quote", "240:1e305",
        "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output
    assert not result.stderr
    payload = json.loads((tmp_path / "strip.json").read_text(), parse_constant=_reject_constant)
    assert payload["quote_months"][-1] == 240
    assert payload["converged"] is False
    assert payload["stop_reason"] == "approximate"


def test_tv_rejects_a_discount_factor_that_underflows_to_0(tmp_path):
    """A discount curve at 10,000% by 120M underflows the discount factors
    around it to 0, and the 240M cap holds those caplets. Their price is 0
    at every vol, so tv has nothing to invert for: one error line naming
    the cap, exit 1, no warning and nothing written. bootstrap and global
    price those caplets at 0 and run."""
    curves = {
        "projection.csv": "maturity_months,zero_rate_pct\n1,0\n240,0\n",
        "discount.csv": "maturity_months,zero_rate_pct\n1,0\n120,10000\n240,0\n",
        "quotes.csv": "maturity_months,flat_vol_bp\n60,50\n240,80\n",
    }
    for name, text in curves.items():
        (tmp_path / name).write_text(text)
    market = [
        "--projection-curve", str(tmp_path / "projection.csv"),
        "--discount-curve", str(tmp_path / "discount.csv"),
        "--quotes", str(tmp_path / "quotes.csv"),
    ]
    for method in ("tv", "bootstrap", "global"):
        out = tmp_path / method
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = _invoke(["run", *market, "--method", method, "--out", str(out)])
        if method == "tv":
            _assert_rejected(result, out)
            assert result.stderr.rstrip().endswith("underflows to 0, in the caps of: 240M")
        else:
            assert result.exit_code == 0, result.output
            assert not result.stderr


# (quotes CSV, strike bp, the maturities priced at 0): zero flat vols out of
# the money, and a deep out-of-the-money price that underflows
ZERO_PRICED_LADDERS = [
    ("maturity_months,flat_vol_bp\n12,0\n24,0\n36,1\n", "1000", "12M, 24M, 36M"),
    ("maturity_months,flat_vol_bp\n12,1000\n24,1e-6\n36,1000\n", "5000", "24M"),
]


def _zero_priced_args(tmp_path, ladder):
    text, strike_bp, _ = ladder
    quotes = tmp_path / "quotes.csv"
    quotes.write_text(text)
    return [
        "--projection-curve", str(DATA / "libor1m_zero_curve.csv"),
        "--discount-curve", str(DATA / "ois_zero_curve.csv"),
        "--quotes", str(quotes), "--strike-bp", strike_bp,
    ]


@pytest.mark.parametrize("method", ["tv", "bootstrap"])
def test_quotes_priced_at_zero_write_no_floor(tmp_path, method):
    """tv and bootstrap strip these ladders. A cap priced at 0 has no
    relative error, so where the stripped ladder keeps one (tv drops the
    underflowed 24M quote, whose time value falls) the floor and the gap
    are written as null."""
    for index, ladder in enumerate(ZERO_PRICED_LADDERS):
        out = tmp_path / f"out{index}"
        result = _invoke(
            ["run", *_zero_priced_args(tmp_path, ladder), "--method", method, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "strip.json").read_text())
        priced_at_zero = 0.0 in payload["market_prices_bp"]
        assert priced_at_zero == (method == "bootstrap" or index == 0)
        assert (payload["floor_cost"] is None) == priced_at_zero
        assert (payload["gap_to_floor"] is None) == priced_at_zero


@pytest.mark.parametrize("ladder", ZERO_PRICED_LADDERS)
@pytest.mark.parametrize("command", ["run", "compare"])
def test_global_rejects_quotes_priced_at_zero(tmp_path, command, ladder):
    """The global solver's errors are relative to the price, so a quote
    priced at 0 ends the run with one error line naming its maturity, and
    nothing written; compare stops at its first global row."""
    out = tmp_path / "out"
    flags = ["--method", "global", "--nodes", "mid"] if command == "run" else []
    result = _invoke([command, *_zero_priced_args(tmp_path, ladder), *flags, "--out", str(out)])
    _assert_rejected(result, out)
    assert result.stderr.rstrip().endswith(f"priced at 0 lack: {ladder[2]}")


# a quarterly ladder whose 24M cap prices at 4.5e-207 bp at a 2068.49 bp
# strike; the global solver's bootstrap start misses that price by so much
# more than the price that its relative error squares past the float range
OVERFLOWING_LADDER = (
    "maturity_months,flat_vol_bp\n12,158.23\n15,197.42\n24,45.56\n51,195.08\n"
    "129,145.08\n159,81.22\n162,195.22\n",
    "2068.49",
    "24M",
)


@pytest.mark.parametrize("command", ["run", "compare"])
def test_global_rejects_a_start_past_the_float_range(tmp_path, command):
    """A start whose cost overflows ends the run with one error line naming
    the quote, no warning and nothing written; compare stops at its first
    global row."""
    out = tmp_path / "out"
    flags = ["--method", "global"] if command == "run" else []
    args = [command, *_zero_priced_args(tmp_path, OVERFLOWING_LADDER), "--tenor-months", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _invoke([*args, *flags, "--out", str(out)])
    _assert_rejected(result, out)
    assert result.stderr.rstrip().endswith(f"of their relative errors: {OVERFLOWING_LADDER[2]}")


# a quarterly ladder on which the hyman fit at maturity nodes once took a
# nan step, after the SVD's small singular values underflowed, and walked
# every node to nan: a nan vol prices as intrinsic, so the step lowered the
# cost and was accepted
NAN_STEP_LADDER = (
    "maturity_months,flat_vol_bp\n27,87.63\n120,125.86\n129,30.94\n", "1771.69", ""
)


def test_global_fit_rejects_a_non_finite_trial_point(tmp_path):
    """The run ends with finite, strict JSON and exit 0, or with one error
    line and nothing written; and no warning either way."""
    out = tmp_path / "out"
    args = [
        "run", *_zero_priced_args(tmp_path, NAN_STEP_LADDER), "--tenor-months", "3",
        "--method", "global", "--family", "hyman", "--nodes", "maturity", "--out", str(out),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _invoke(args)
    if result.exit_code == 1:
        _assert_rejected(result, out)
        return
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "strip.json").read_text(), parse_constant=_reject_constant)
    assert all(math.isfinite(v) for v in payload["node_values_bp"] + payload["residuals_bp"])
    assert payload["iterations"] <= 200
    for name in ("strip.csv", "volcurve_daily.csv"):
        cells = [line.split(",")[1] for line in (out / name).read_text().splitlines()[1:]]
        assert all(math.isfinite(float(cell)) for cell in cells)


def _reject_constant(name):
    raise AssertionError(f"strict JSON has no {name}")


# a quarterly ladder whose 24M cap prices at 7.5e-233 at a 1500 bp strike,
# a price whose square underflows
TINY_PRICED_LADDER = ("maturity_months,flat_vol_bp\n24,30\n36,35\n48,40\n60,45\n", "1500", "")


@pytest.mark.parametrize("method", ["tv", "bootstrap", "global"])
def test_a_price_whose_square_underflows_keeps_the_floor(tmp_path, method):
    """Every engine strips the ladder with exit 0 and no warning, and writes
    its floor: 0, as the ladder has no arbitrage."""
    out = tmp_path / "out"
    args = _zero_priced_args(tmp_path, TINY_PRICED_LADDER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _invoke(
            ["run", *args, "--tenor-months", "3", "--method", method, "--out", str(out)]
        )
    assert result.exit_code == 0, result.output
    assert json.loads((out / "strip.json").read_text())["floor_cost"] == 0.0


def test_a_cost_past_the_float_range_writes_a_null_gap(tmp_path):
    """The bootstrap clamps this quarterly ladder's 24M node, at zero vol,
    and misses its 6.1e-197 bp price by far more than the price: the cost
    overflows, and strip.json writes the gap to the floor as null. The
    floor, the 24M quote's miss when the 36M one is met, is 1."""
    ladder = ("maturity_months,flat_vol_bp\n12,160\n24,45\n36,200\n", "2000", "")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _invoke(
            ["run", *_zero_priced_args(tmp_path, ladder), "--tenor-months", "3", "--out", str(out)]
        )
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "strip.json").read_text())
    assert payload["clamped_months"] == [24]
    assert payload["floor_cost"] == 1.0
    assert payload["gap_to_floor"] is None


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
        (["--far-quote", "999999999999999"], "horizon"),
        (["--mad-threshold", "inf"], "MAD"),
        (["--far-quote", "240:1e308"], "240M"),
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


@pytest.mark.parametrize("family", ["flat-linear", "cosine"])
def test_evaluated_curve_ramps_over_the_result_tenor(family):
    """A ramp family's transition spans one caplet tenor, which the result
    carries as its first fixing time: a quarterly result's evaluated curve
    is its curve with delta = 0.25 on every day, not the monthly one."""
    forward = ZeroCurve.from_csv(DATA / "libor1m_zero_curve.csv")
    discount = ZeroCurve.from_csv(DATA / "ois_zero_curve.csv")
    schedule = build_schedule(forward, discount, 180, tenor_months=3)
    months = np.array([6, 12, 24, 36, 60, 84, 120, 180])
    quotes = CapQuoteSet(months, np.linspace(70.0, 95.0, len(months)) * 1e-4, strike=0.01)
    result = bootstrap_sequential(schedule, quotes, StripConfig(family=family))
    days = np.arange(1, int(np.floor(result.caplet_times[-1] * 365.0)) + 1) / 365.0

    def curve(delta):
        ramped = VolCurve(family, result.node_times, result.node_values, delta=delta)
        return np.maximum(ramped(days), 0.0)

    quarterly = curve(0.25)
    assert evaluated_curve(result)(days).tobytes() == quarterly.tobytes()
    assert not np.array_equal(quarterly, curve(1.0 / 12.0))


def test_daily_curve_text_matches_the_per_line_format():
    halves_bp = np.array([0.00005, 1.23455, 99.99995, 1234.56785])
    # vols up to three ulps either side of each 4-decimal half, once scaled to bp
    near = list(halves_bp * 1e-4)
    for vol in halves_bp * 1e-4:
        below = above = vol
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            near += [below, above]
    # -0.0, values that print as -0.0000, and vols above 1000 bp
    vols = np.array([-0.0, 0.0, -4e-9, -5e-9, 4e-9, 0.100000005, 0.25, 9.876543215] + near)
    # one caplet per day: day d reads caplet d - 1
    times = np.arange(1, len(vols) + 1) / 365.0
    result = StripResult(
        method="tv", quote_months=np.array([2]), market_prices_bp=np.ones(1),
        residuals_bp=np.zeros(1), node_times=times[:1], node_values=np.ones(1),
        caplet_times=times, caplet_vols=vols,
    )
    sampled_bp = evaluated_curve(result)(times) * 1e4
    assert np.array_equal(sampled_bp, vols * 1e4)
    assert math.copysign(1.0, sampled_bp[0]) == -1.0
    for half in halves_bp:
        assert np.any(sampled_bp < half) and np.any(sampled_bp > half)
    expected = "\n".join(
        ["t_years,caplet_vol_bp"] + ["%.6f,%.4f" % (t, v) for t, v in zip(times, sampled_bp)]
    ) + "\n"
    text = _daily_curve_text(result)
    assert text == expected
    assert ",-0.0000\n" in text and ",1234.5678\n" in text and ",1234.5679\n" in text


def _tv_result(times, vols):
    """A tv result whose evaluated curve steps through `vols` at `times`."""
    return StripResult(
        method="tv", quote_months=np.array([2]), market_prices_bp=np.ones(1),
        residuals_bp=np.zeros(1), node_times=times[:1], node_values=np.ones(1),
        caplet_times=times, caplet_vols=vols,
    )


def _daily_curve_oracle(result):
    """volcurve_daily.csv as one `%` expression over the interleaved (t, vol) pairs."""
    days = np.arange(1, int(np.floor(result.caplet_times[-1] * 365.0)) + 1)
    times = days / 365.0
    vols_bp = np.asarray(evaluated_curve(result)(times), dtype=float) * 1e4
    pairs = np.column_stack((times, vols_bp)).ravel()
    return "t_years,caplet_vol_bp\n" + ("%.6f,%.4f\n" * len(times)) % tuple(pairs.tolist())


def _strip_csv_oracle(result):
    """strip.csv as one f-string per fixing."""
    lines = ["fixing_months,caplet_vol_bp"]
    for t, vol in zip(result.caplet_times, result.caplet_vols):
        lines.append(f"{round(t * 12)},{vol * 1e4:.4f}")
    return "\n".join(lines) + "\n"


def test_daily_curve_day_column_is_exact_to_the_horizon():
    """Every day of the 1200-month horizon prints as "%.6f" % (d / 365)."""
    times = np.arange(1, 1201) / 12.0
    vols = np.random.default_rng(3).uniform(-5e-4, 0.05, len(times))
    text = _daily_curve_text(_tv_result(times, vols))
    assert text == _daily_curve_oracle(_tv_result(times, vols))
    days = np.arange(1, 36_501)
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == [
        "%.6f" % (d / 365) for d in days
    ]


@pytest.mark.parametrize(
    "odd",
    [
        [2.0**52 * 1e-8],
        [np.nextafter(2.0**52 * 1e-8, 0.0), np.nextafter(2.0**52 * 1e-8, 1.0)],
        [-2.0**52 * 1e-8, 1e20, -1e300],
        [7.77777777777777e9],  # its float product with 1e8 is not its exact digits
        [float("nan")],
        [float("inf"), -float("inf")],
    ],
)
def test_vol_columns_past_the_integer_digits_print_as_the_format_does(odd):
    """Vols whose bp text has no room in int64 (|vol| 1e8 >= 2**52), and
    non-finite ones, send their column to `%`; the text stays the same."""
    vols = np.concatenate(([0.0071234, -0.0], odd, [1.23455e-4]))
    times = np.arange(1, len(vols) + 1) / 12.0
    result = _tv_result(times, vols)
    assert _strip_csv_text(result) == _strip_csv_oracle(result)
    assert _daily_curve_text(result) == _daily_curve_oracle(result)
    # the largest vol that keeps its digits prints through the words
    below = np.nextafter(2.0**52 * 1e-8, 0.0)
    assert _strip_csv_text(_tv_result(times[:1], np.array([below]))).endswith(
        ",%.4f\n" % (below * 1e4)
    )


@pytest.mark.parametrize("tenor_months", [1, 3])
def test_strip_csv_text_matches_the_per_line_format(tenor_months):
    forward = ZeroCurve.from_csv(DATA / "libor1m_zero_curve.csv")
    discount = ZeroCurve.from_csv(DATA / "ois_zero_curve.csv")
    schedule = build_schedule(forward, discount, 180, tenor_months=tenor_months)
    months = np.array([6, 12, 24, 36, 60, 84, 120, 180])
    quotes = CapQuoteSet(months, np.linspace(70.0, 95.0, len(months)) * 1e-4, strike=0.01)
    for engine in (strip_time_value, bootstrap_sequential):
        result = engine(schedule, quotes, StripConfig(family="linear"))
        text = _strip_csv_text(result)
        assert text == _strip_csv_oracle(result)
        assert text.splitlines()[1].startswith(f"{tenor_months},")
        assert _daily_curve_text(result) == _daily_curve_oracle(result)
    # fixings at half months round to the even month, as round does
    halves = _tv_result((np.arange(40) + 0.5) / 12.0, np.full(40, 0.0075))
    assert _strip_csv_text(halves) == _strip_csv_oracle(halves)
    assert _strip_csv_text(halves).splitlines()[1:4] == ["0,75.0000", "2,75.0000", "2,75.0000"]


@pytest.mark.parametrize("ladder", ["raw", "clean"])
def test_fixture_curves_print_as_the_format_does(ladder):
    """strip.csv and volcurve_daily.csv equal the `%` text for tv, for every
    family through the bootstrap at maturity and the global solver at
    midpoints, and for the quintic exp mid fit. On the raw ladder that fit
    ends with a node vol that underflows to 0, yet its daily curve, rebuilt
    from the solved log-vols, stays finite; the free quintic mid fit peaks
    near 1.09e7 bp."""
    forward = ZeroCurve.from_csv(DATA / "libor1m_zero_curve.csv")
    discount = ZeroCurve.from_csv(DATA / "ois_zero_curve.csv")
    quotes = CapQuoteSet.from_csv(DATA / "cap_quotes.csv")
    if ladder == "clean":
        quotes = quotes.drop(detect_outliers(quotes).flagged)
    schedule = build_schedule(forward, discount, 180)
    runs = [(strip_time_value, StripConfig())]
    runs += [(bootstrap_sequential, StripConfig(family=family)) for family in FAMILIES]
    runs += [(strip_global, StripConfig(family=family, placement="mid")) for family in FAMILIES]
    runs += [(strip_global, StripConfig(family="quintic", placement="mid", positivity="exp"))]
    peaks = []
    for engine, config in runs:
        result = engine(schedule, quotes, config)
        daily = _daily_curve_text(result)
        assert daily == _daily_curve_oracle(result), config
        assert _strip_csv_text(result) == _strip_csv_oracle(result), config
        vols_bp = [float(line.split(",")[1]) for line in daily.splitlines()[1:]]
        assert all(map(math.isfinite, vols_bp)), config
        peaks.append(max(map(abs, vols_bp)))
    if ladder == "raw":
        assert max(peaks[:-1]) > 1e7


def _diagnostics_oracle(report):
    """diagnostics.csv as one f-string per quote."""
    lines = [
        "maturity_months,flat_vol_bp,cap_price_bp,intrinsic_bp,time_value_bp,"
        "d_price_bp,d_intrinsic_bp,d_time_value_bp,violation"
    ]
    for q in range(len(report.maturities_months)):
        month = int(report.maturities_months[q])
        cells = [
            f"{column[q]:.4f}"
            for column in (
                report.flat_vols_bp, report.cap_price_bp, report.intrinsic_bp,
                report.time_value_bp, report.dP_bp, report.dIV_bp, report.dTV_bp,
            )
        ]
        lines.append(f"{month}," + ",".join(cells) + f",{int(month in report.violations)}")
    return "\n".join(lines) + "\n"


def _outliers_oracle(quotes, report):
    """outliers.csv as one f-string per quote."""
    lines = ["maturity_months,flat_vol_bp,score,flagged"]
    for q in range(len(quotes)):
        month = int(quotes.maturities_months[q])
        lines.append(
            f"{month},{quotes.flat_vols[q] * 1e4:.4f},{report.scores[q]:.4f},"
            f"{int(month in report.flagged)}"
        )
    return "\n".join(lines) + "\n"


def _near_halves(halves_bp):
    """Each bp value and the values up to four ulps either side of it."""
    near = []
    for half in halves_bp:
        below = above = half
        near.append(half)
        for _ in range(4):
            below, above = np.nextafter(below, -math.inf), np.nextafter(above, math.inf)
            near += [below, above]
    return near


# months across the 4-digit groups, then the cells of one row each: -0.0,
# tiny negatives that print -0.0000, values within 4 ulps of a 4-decimal
# half, and large ones
LADDER_MONTHS = [2, 9, 10, 99, 100, 999, 1000, 9999, 10_000, 10_001, 123_456_789]
ODD_BP = [-0.0, 0.0, -4e-5, -5e-5, -4.9999e-5, 4e-5, 2.0**52 * 1e-8, -9.876543215]
ODD_BP += _near_halves([0.00005, -1.23455, 99.99995, 1234.56785, -9999.99995])


def _ladder_rows(values, columns, seed):
    """values spread over a len(LADDER_MONTHS) x columns table, shuffled."""
    cells = np.resize(np.asarray(values, dtype=float), len(LADDER_MONTHS) * columns)
    return np.random.default_rng(seed).permutation(cells).reshape(len(LADDER_MONTHS), columns)


def _report(table, violations):
    months = np.array(LADDER_MONTHS)
    return DiagnosticsReport(months, *table.T, violations=violations)


@pytest.mark.parametrize(
    "extra",
    [
        [],
        # |v| 1e4 at or past 2**52 has no room in int64: the block prints by `%`
        [2.0**52 * 1e-4, -1e20],
        [2.0**46 + 2.0**-6],  # its float product with 1e4 is not its exact digits
        [np.nextafter(2.0**52 * 1e-4, 0.0)],
        [float("nan"), float("inf"), -float("inf")],
        [1e305, -1e305],  # finite, but past the float range in |v| 1e4
    ],
)
def test_ladder_tables_print_as_their_f_strings(extra):
    """diagnostics.csv and outliers.csv equal their f-string texts cell for
    cell: bp cells as "%.4f", months and flags as integers."""
    values = [float(v) for v in ODD_BP] + extra
    for seed in range(4):
        table = _ladder_rows(values, 7, seed)
        for violations in ([], [2], [9, 10_000, 123_456_789], LADDER_MONTHS):
            report = _report(table, violations)
            assert _diagnostics_text(report) == _diagnostics_oracle(report)
        vols_bp = np.abs(_ladder_rows(ODD_BP, 1, seed)[:, 0])  # finite, as quotes are
        quotes = CapQuoteSet(np.array(LADDER_MONTHS), vols_bp * 1e-4)
        for flagged in ([], [10, 999]):
            outliers = OutlierReport(quotes.maturities_months, table[:, 1], flagged)
            assert _outliers_text(quotes, outliers) == _outliers_oracle(quotes, outliers)
    # each odd cell shows up as the format prints it
    text = _diagnostics_text(_report(_ladder_rows(values, 7, 0), [9]))
    assert ",-0.0000," in text and "\n123456789," in text and "\n9999," in text
    assert ",1234.5678," in text and ",1234.5679," in text


def test_fixture_ladder_tables_print_as_their_f_strings(tmp_path):
    """The fixture run's diagnostics.csv and outliers.csv, and compare.csv,
    are the f-string texts."""
    out = tmp_path / "out"
    assert _invoke(["run", *_market_args(), "--out", str(out)]).exit_code == 0
    forward = ZeroCurve.from_csv(DATA / "libor1m_zero_curve.csv")
    discount = ZeroCurve.from_csv(DATA / "ois_zero_curve.csv")
    quotes = CapQuoteSet.from_csv(DATA / "cap_quotes.csv")
    report = decompose(build_schedule(forward, discount, 180), quotes)
    assert report.violations
    assert (out / "diagnostics.csv").read_text() == _diagnostics_oracle(report)
    outliers = detect_outliers(quotes)
    assert outliers.flagged
    assert (out / "outliers.csv").read_text() == _outliers_oracle(quotes, outliers)

    result = _invoke(["compare", *_market_args(), "--out", str(out)])
    rows = compare_methods(build_schedule(forward, discount, 180), quotes)
    lines = ["method,min_vol_bp,min_node_bp,reprice_err"]
    lines += [f"{label},{vol:.4f},{node:.4f},{err:.2e}" for label, vol, node, err in rows]
    assert result.exit_code == 0
    assert (out / "compare.csv").read_text() == "\n".join(lines) + "\n"
