"""capstrip's trust-region loop against scipy's least_squares, bit for bit.

trust_region.solve keeps least_squares' arithmetic (method='trf', linear
loss, exact steps, x_scale='jac'), so on the same problem it must return
the same x, evaluation count and stop status, free and under a lower
bound, on a full-rank and a rank-deficient Jacobian; and the global fit
must equal the scipy-driven fit it replaced on the fixture ladders.
The loop holds scipy's OpenBLAS pool at one thread and gives back the
count it found, so a fit's bits do not depend on the core count.
"""

import ctypes
import logging
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from curve_oracles import least_squares_global_fit
from scipy.linalg import _flapack
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


def test_a_non_finite_trial_point_is_rejected_unevaluated(monkeypatch):
    """A nan step, as Moré's iteration gives where the SVD's small singular
    values underflow, counts as an evaluation whose residuals are not
    finite: it is not evaluated, the radius shrinks to a quarter and the
    Levenberg-Marquardt parameter restarts at 0; the fit then goes on from
    the point it holds, to the plain loop's least cost."""
    fun, jac, x0 = _tanh_problem(0)
    expected = trust_region.solve(lambda x: (fun(x), x), jac, x0, 200)
    solve_step = trust_region._solve_lsq_trust_region
    calls = []

    def first_step_lost(n, m, uf, s, V, Delta, alpha):
        calls.append((Delta, alpha))
        step, alpha = solve_step(n, m, uf, s, V, Delta, alpha)
        return (np.full(n, np.nan), np.nan) if len(calls) == 1 else (step, alpha)

    monkeypatch.setattr(trust_region, "_solve_lsq_trust_region", first_step_lost)
    evaluated, traced = [], []

    def residuals(x):
        evaluated.append(x)
        return fun(x), x

    fit = trust_region.solve(residuals, jac, x0, 200, trace=lambda *record: traced.append(record))
    assert all(np.isfinite(x).all() for x in evaluated)
    assert np.isfinite(fit.x).all()
    assert traced[1][1] == np.inf and traced[1][4] is False
    assert calls[1] == (0.25 * calls[0][0], 0.0)
    assert fit.nfev == len(evaluated) + 1
    cost, least = (0.5 * fun(x).dot(fun(x)) for x in (fit.x, expected.x))
    assert cost == pytest.approx(least, rel=1e-12)


@pytest.fixture
def pool():
    """(get, set) of the thread count of the OpenBLAS behind scipy's LAPACK,
    looked up here rather than through the solver; restored after the test."""
    library = ctypes.CDLL(_flapack.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        get = getattr(library, f"{prefix}_get_num_threads", None)
        set_ = getattr(library, f"{prefix}_set_num_threads", None)
        if get and set_:
            break
    else:
        pytest.skip("scipy's LAPACK is not an OpenBLAS with a thread count")
    get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
    found = get()
    yield get, set_
    set_(found)


def test_the_pool_runs_one_thread_inside_a_solve_and_is_restored_on_return(pool):
    get, set_ = pool
    set_(2)
    ambient = get()  # 1 where the machine has one CPU
    fun, jac, x0 = _tanh_problem(0)
    inside = []
    trust_region.solve(lambda x: (fun(x), x), jac, x0, 200, trace=lambda *_: inside.append(get()))
    assert len(inside) > 1 and set(inside) == {1}
    assert get() == ambient


def test_the_pool_is_restored_when_a_solve_raises(pool):
    get, set_ = pool
    set_(2)
    ambient = get()
    fun, jac, x0 = _tanh_problem(0)
    with pytest.raises(trust_region.StartNotFinite):
        trust_region.solve(lambda x: (np.full(12, np.inf), x), jac, x0, 200)
    assert get() == ambient

    calls = []

    def nan_after_the_start(x):
        calls.append(x)
        return jac(x) if len(calls) == 1 else np.full((12, 4), np.nan)

    with pytest.raises(ValueError, match="infs or NaNs"):
        trust_region.solve(lambda x: (fun(x), x), nan_after_the_start, x0, 200)
    assert get() == ambient


def test_concurrent_solves_restore_the_pool_once(pool):
    """Both solves are inside at once, and the second still runs one thread
    after the first has returned; the count is restored when both are done."""
    get, set_ = pool
    set_(2)
    ambient = get()
    fun, jac, x0 = _tanh_problem(0)
    both_inside = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    seen = []

    def first():
        trust_region.solve(
            lambda x: (fun(x), x), jac, x0, 200,
            trace=lambda nfev, *_: nfev == 1 and both_inside.wait(),
        )
        first_done.set()

    def second_trace(nfev, *_):
        if nfev == 1:
            both_inside.wait()
            assert first_done.wait(timeout=30)
        seen.append(get())

    thread = threading.Thread(target=first)
    thread.start()
    trust_region.solve(lambda x: (fun(x), x), jac, x0, 200, trace=second_trace)
    thread.join(timeout=30)
    assert not thread.is_alive() and first_done.is_set() and set(seen) == {1}
    assert get() == ambient


def test_many_concurrent_solves_keep_the_pin(pool):
    """Four threads of solves, with the interpreter switching threads every
    microsecond: no solve sees a count other than 1, and the count ends as
    found."""
    get, set_ = pool
    set_(2)
    ambient = get()
    fun, jac, x0 = _tanh_problem(0)
    seen = []

    def solves():
        for _ in range(3):
            trust_region.solve(
                lambda x: (fun(x), x), jac, x0, 200, trace=lambda *_: seen.append(get())
            )

    threads = [threading.Thread(target=solves) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) > len(threads) and set(seen) == {1}
    assert get() == ambient


def test_the_pin_does_nothing_without_a_thread_count(pool, monkeypatch):
    get, set_ = pool
    set_(2)
    ambient = get()
    monkeypatch.setattr(trust_region, "_openblas_threads", lambda: None)
    fun, jac, x0 = _tanh_problem(0)
    inside = []
    trust_region.solve(lambda x: (fun(x), x), jac, x0, 200, trace=lambda *_: inside.append(get()))
    assert set(inside) == {ambient} and get() == ambient


def _ladder_300():
    """300 quotes of a humped flat-vol ladder on 30 years of monthly caplets,
    strike 100 bp, spread geometrically so the short end is dense."""
    pillars = np.array([0, 1, 3, 6, 12, 24, 36, 60, 84, 120, 180, 240, 360])
    rates = 0.0105 + 0.01 * (1 - np.exp(-pillars / 60))
    schedule = cs.build_schedule(
        cs.ZeroCurve(pillars, rates), cs.ZeroCurve(pillars, rates - 0.002), 360, 1
    )
    grid = np.arange(2, 361)
    picks = np.rint(np.geomspace(1, grid.size, 300)).astype(int) - 1
    for k in range(1, picks.size):  # distinct, and the last on 360M
        picks[k] = max(picks[k], picks[k - 1] + 1)
    for k in range(picks.size - 2, -1, -1):
        picks[k] = min(picks[k], picks[k + 1] - 1)
    years = grid[picks] / 12
    vols = 0.0085 * (0.7 + 0.6 * (years / 2) * np.exp(1 - years / 2))
    return schedule, cs.CapQuoteSet(grid[picks], vols, strike=0.01)


def test_a_large_global_fit_does_not_depend_on_the_thread_count(pool):
    """A threaded gesdd rounds its 300-column SVDs differently, which moved
    this fit's nodes by about 1e-13 relative between one and two threads.
    On a one-CPU machine the pool cannot reach two threads, and this passes
    whatever the solver does."""
    get, set_ = pool
    schedule, quotes = _ladder_300()
    config = cs.StripConfig(family="cubic", placement="mid")
    results = []
    for threads in (1, 2):
        set_(threads)
        results.append(cs.strip_global(schedule, quotes, config))
    one, two = results
    assert one.stop_reason == "priced"
    for field in fields(one):
        got, want = getattr(two, field.name), getattr(one, field.name)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name
