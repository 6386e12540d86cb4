"""capstrip's trust-region loop against scipy's least_squares, bit for bit.

trust_region.solve keeps least_squares' arithmetic (method='trf', linear
loss, exact steps, x_scale='jac'), so on the same problem it must return
the same x, evaluation count and stop status, free and under a lower
bound, on a full-rank and a rank-deficient Jacobian; and the global fit
must equal the scipy-driven fit it replaced on the fixture ladders.
"""

import logging
from dataclasses import fields

import numpy as np
import pytest
from curve_oracles import least_squares_global_fit
from scipy.optimize import least_squares

import capstrip as cs
from capstrip import trust_region


def _tanh_problem(seed, rank_deficient=False, m=12, n=4):
    """f(x) = tanh(B x) - y with some targets past tanh's range, so that
    some fits stall short of zero; a repeated column makes B rank-deficient."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(m, n))
    if rank_deficient:
        B[:, -1] = B[:, 0]
    y = rng.uniform(-1.3, 1.3, m)
    x0 = rng.uniform(0.2, 1.5, n)

    def fun(x):
        return np.tanh(B @ x) - y

    def jac(x):
        return (1.0 - np.tanh(B @ x) ** 2)[:, None] * B

    return fun, jac, x0


PROBLEMS = [
    (seed, rank_deficient, lower, max_nfev)
    for seed in range(4)
    for rank_deficient in (False, True)
    for lower in (-np.inf, 0.1)
    for max_nfev in (6, 200)
]


@pytest.mark.parametrize("seed, rank_deficient, lower, max_nfev", PROBLEMS)
def test_solve_takes_least_squares_steps(seed, rank_deficient, lower, max_nfev):
    fun, jac, x0 = _tanh_problem(seed, rank_deficient)
    expected = least_squares(
        fun, x0, jac=jac, bounds=(lower, np.inf), method="trf", x_scale="jac",
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=max_nfev,
    )
    fit = trust_region.solve(lambda x: (fun(x), x), jac, x0, max_nfev, lower=lower)
    assert fit.x.tobytes() == expected.x.tobytes()
    assert (fit.nfev, fit.status) == (expected.nfev, expected.status)


def test_the_generic_problems_reach_every_stop():
    statuses = set()
    for seed, rank_deficient, lower, max_nfev in PROBLEMS:
        fun, jac, x0 = _tanh_problem(seed, rank_deficient)
        fit = trust_region.solve(lambda x: (fun(x), x), jac, x0, max_nfev, lower=lower)
        statuses.add(fit.status)
    assert statuses == {
        trust_region.MAX_NFEV, trust_region.GTOL, trust_region.FTOL, trust_region.XTOL
    }


@pytest.mark.parametrize("lower", [-np.inf, 0.1])
def test_certified_stops_as_a_stopping_callback(lower):
    fun, jac, x0 = _tanh_problem(1)
    start_cost = 0.5 * fun(x0) @ fun(x0)

    def halt(intermediate_result):
        if intermediate_result.cost < 0.5 * start_cost:
            raise StopIteration

    expected = least_squares(
        fun, x0, jac=jac, bounds=(lower, np.inf), method="trf", x_scale="jac",
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=200, callback=halt,
    )
    fit = trust_region.solve(
        lambda x: (fun(x), x), jac, x0, 200, lower=lower,
        certified=lambda point, cost: cost < 0.5 * start_cost,
    )
    assert expected.status == trust_region.CERTIFIED
    assert fit.x.tobytes() == expected.x.tobytes()
    assert (fit.nfev, fit.status) == (expected.nfev, expected.status)


@pytest.fixture(scope="module")
def mid_rows(schedule, quotes, clean_quotes):
    """The 64 mid-node global rows, every family and positivity mode on both
    fixture ladders at 40 evaluations: (capstrip's fit, least_squares')."""
    rows = {}
    for ladder, chosen in (("raw", quotes), ("clean", clean_quotes)):
        for family in cs.FAMILIES:
            for positivity in ("none", "nonneg", "exp", "floor"):
                config = cs.StripConfig(
                    family=family, placement="mid", positivity=positivity, floor_bp=10.0,
                    max_iter=40,
                )
                rows[ladder, family, positivity] = (
                    cs.strip_global(schedule, chosen, config),
                    least_squares_global_fit(schedule, chosen, config),
                )
    return rows


def test_global_fit_is_the_least_squares_fit(mid_rows):
    for key, (result, expected) in mid_rows.items():
        for field in fields(result):
            got, want = getattr(result, field.name), getattr(expected, field.name)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), (key, field.name)
            else:
                assert got == want, (key, field.name)
    reasons = {result.stop_reason for result, _ in mid_rows.values()}
    assert reasons == {"priced", "floor", "gtol", "ftol", "xtol", "max_nfev"}


def test_solver_trace_logs_every_evaluation(schedule, quotes, caplog):
    config = cs.StripConfig(family="linear", placement="mid")
    with caplog.at_level(logging.DEBUG, logger="capstrip.stripping"):
        result = cs.strip_global(schedule, quotes, config)
    messages = [record.getMessage() for record in caplog.records]
    evaluations = [text for text in messages if text.startswith("global evaluation ")]
    assert len(evaluations) == result.iterations
    assert evaluations[0].startswith("global evaluation 1: ")
    stops = [text for text in messages if text.startswith("global stop: ")]
    assert stops == [
        f"global stop: floor after {result.iterations} evaluations, "
        f"gap to floor {result.gap_to_floor:.6g}"
    ]
    assert len(messages) == result.iterations + 1


def test_solver_trace_is_silent_by_default(schedule, quotes, caplog):
    with caplog.at_level(logging.INFO):
        cs.strip_global(schedule, quotes, cs.StripConfig(family="linear", placement="mid"))
    assert not caplog.records
