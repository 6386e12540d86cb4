"""The global fit's least-squares loop: trust-region reflective, exact steps.

This is the trust-region reflective method of Branch, Coleman & Li (SIAM
J. Sci. Comput. 21(1), 1999) with Moré's exact trust-region step (Lecture
Notes in Mathematics 630, 1977) taken on one SVD per iteration, as
scipy.optimize.least_squares runs it with method='trf', linear loss,
tr_solver='exact' and x_scale='jac'. It keeps scipy 1.17.1's arithmetic
operation for operation, so that its iterates, evaluation counts and stop
statuses are least_squares' bit for bit; each helper below is named after
the scipy function it follows. What the global fit never asks for is left
out: robust losses, upper bounds, finite differences, lsmr, verbose output
and the argument checks. The bounds are a scalar lower bound, or none.

Without a bound the loop is the plain trust-region loop (trf_no_bounds).
With one, each iteration scales the variables by the Coleman-Li vector,
takes the SVD of the Jacobian stacked over the diagonal of the scaling's
derivative, and picks the best of the trust-region step cut at the bound,
its reflection, and the Cauchy step (select_step).
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

EPS = np.finfo(float).eps
TOL = 1e-15  # ftol, xtol and gtol alike: the stop tests fire only once the fit stalls

# stop statuses, numbered as least_squares numbers them
CERTIFIED, MAX_NFEV, GTOL, FTOL, XTOL, FTOL_XTOL = -2, 0, 1, 2, 3, 4


class Fit(NamedTuple):
    x: np.ndarray
    point: object  # what residuals returned beside f at x
    nfev: int
    status: int


class StartNotFinite(ArithmeticError):
    """The start's cost, or a column norm of its Jacobian, is not finite.

    rows are the residuals whose own terms can overflow the sum: f_i^2, or
    a J_ik^2, at or past the float range over twice the residual count.
    """

    def __init__(self, rows):
        super().__init__(f"the start's cost is not finite; residuals {list(rows)}")
        self.rows = rows


def _norm(v):
    # numpy.linalg.norm's arithmetic for a real vector
    return np.sqrt(v.dot(v))


def solve(residuals, jacobian, x0, max_nfev, lower=-np.inf, certified=None, trace=None):
    """Minimise 0.5 * |f(x)|^2 over x >= lower, from x0 (x0 >= lower), in at
    most max_nfev residual evaluations.

    residuals(x) returns (f, point): the residual vector and whatever the
    caller wants kept of the evaluation; jacobian(point) returns df/dx
    there. After each iteration certified(point, cost), if given, is asked
    about the point the loop holds, and a True stops the loop (CERTIFIED),
    as a least_squares callback raising StopIteration does. trace(nfev,
    cost, step_norm, radius, accepted), if given, is told of every residual
    evaluation: the start (step 0, accepted) and each trial step, with the
    trust-region radius it was taken in (cost inf where f is not finite).

    Raises StartNotFinite when the start's cost or a column norm of its
    Jacobian is not finite, and ValueError where least_squares' SVD would
    have met a non-finite matrix.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    bounded = lower > -np.inf
    if bounded:
        x = _make_strictly_feasible(x, lower, 1e-10)

    f, point = residuals(x)
    J = jacobian(point)
    m = f.size
    nfev = 1
    with np.errstate(over="ignore", invalid="ignore"):
        cost = 0.5 * f.dot(f)
        # compute_jac_scale
        scale_inv = (J**2).sum(axis=0) ** 0.5
        if not (np.isfinite(cost) and np.isfinite(scale_inv).all()):
            terms = np.maximum(f * f, (J * J).max(axis=1))
            raise StartNotFinite(np.flatnonzero(~(terms < np.finfo(float).max / (2 * m))))
    g = J.T.dot(f)
    scale_inv[scale_inv == 0] = 1
    scale = 1 / scale_inv

    if bounded:
        v, dv = _cl_scaling_vector(x, g, lower)
        v[dv != 0] *= scale_inv[dv != 0]
        Delta = _norm(x * scale_inv / v**0.5)
        f_augmented = np.zeros(m + n)
        J_augmented = np.zeros((m + n, n))
        diagonal = (np.arange(m, m + n), np.arange(n))
    else:
        Delta = _norm(x * scale_inv)
    if Delta == 0:
        Delta = 1.0
    if trace is not None:
        trace(nfev, cost, 0.0, Delta, True)

    gesdd, gesdd_lwork = get_lapack_funcs(("gesdd", "gesdd_lwork"), (J,), ilp64="preferred")
    work, info = gesdd_lwork(m + n if bounded else m, n, compute_uv=1, full_matrices=0)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    lwork = int(work.real)

    def svd(a):
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
        u, s, vt, info = gesdd(a, compute_uv=1, lwork=lwork, full_matrices=0, overwrite_a=0)
        if info > 0:
            raise np.linalg.LinAlgError("SVD did not converge")
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
        return u, s, vt

    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        if bounded:
            v, dv = _cl_scaling_vector(x, g, lower)
            g_norm = np.abs(g * v).max()
        else:
            g_norm = np.abs(g).max()
        if g_norm < TOL:
            status = GTOL
        if status is not None or nfev == max_nfev:
            break

        if bounded:
            v[dv != 0] *= scale_inv[dv != 0]
            d = v**0.5 * scale
            diag_h = g * dv * scale
            g_h = d * g
            f_augmented[:m] = f
            J_augmented[:m] = J * d
            J_h = J_augmented[:m]
            J_augmented[diagonal] = diag_h**0.5
            U, s, V = svd(J_augmented)
            uf = U.T.dot(f_augmented)
            theta = max(0.995, 1 - g_norm)
        else:
            d = scale
            g_h = d * g
            J_h = J * d
            U, s, V = svd(J_h)
            uf = U.T.dot(f)
        V = V.T

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            step_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            if bounded:
                step, step_h, predicted_reduction = _select_step(
                    x, J_h, diag_h, g_h, d * step_h, step_h, d, Delta, lower, theta
                )
                x_new = _make_strictly_feasible(x + step, lower, 0)
            else:
                predicted_reduction = -_evaluate_quadratic(J_h, g_h, step_h)
                step = d * step_h
                x_new = x + step
            f_new, point_new = residuals(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)

            if not np.isfinite(f_new).all():
                if trace is not None:
                    trace(nfev, math.inf, _norm(step), Delta, False)
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * f_new.dot(f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction, step_h_norm,
                step_h_norm > 0.95 * Delta,
            )
            step_norm = _norm(step)
            if trace is not None:
                trace(nfev, cost_new, step_norm, Delta, actual_reduction > 0)
            status = _check_termination(actual_reduction, cost, step_norm, _norm(x), ratio)
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, point, cost = x_new, f_new, point_new, cost_new
            J = jacobian(point)
            g = J.T.dot(f)
            # compute_jac_scale, never below the scale already reached
            scale_inv = np.maximum((J**2).sum(axis=0) ** 0.5, scale_inv)
            scale = 1 / scale_inv

        if certified is not None and certified(point, cost):
            status = CERTIFIED
            break

    return Fit(x, point, nfev, MAX_NFEV if status is None else status)


def _make_strictly_feasible(x, lower, rstep):
    """make_strictly_feasible(x, lower, inf, rstep): each x at or within
    rstep (relative) of the bound moves to that distance from it, or to the
    next float past it when rstep is 0."""
    x_new = x.copy()
    if rstep == 0:
        x_new[x <= lower] = np.nextafter(lower, np.inf)
    else:
        threshold = rstep * max(1, abs(lower))
        x_new[x - lower <= threshold] = lower + threshold
    return x_new


def _cl_scaling_vector(x, g, lower):
    """CL_scaling_vector with no upper bound: v is the distance to the bound
    where the gradient points away from it, else 1; dv its derivative."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = g > 0
    v[mask] = x[mask] - lower
    dv[mask] = 1
    return v, dv


def _step_size_to_bound(x, s, lower):
    """step_size_to_bound with no upper bound: the least t >= 0 that puts
    x + t * s on the bound (inf if none does), and sign(s) on the entries
    that take that step, 0 elsewhere."""
    steps = np.full_like(x, np.inf)
    down = s < 0
    with np.errstate(over="ignore"):
        steps[down] = (lower - x[down]) / s[down]
    min_step = steps.min()
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha, rtol=0.01, max_iter=10):
    """solve_lsq_trust_region: the step p with |p| <= Delta minimising
    |J p + f|, from the SVD J = U diag(s) V^T and uf = U^T f, by Moré's
    iteration on the Levenberg-Marquardt parameter alpha, which it returns
    beside p (0 for the Gauss-Newton step)."""

    def phi_and_derivative(alpha):
        denom = s2 + alpha
        p_norm = _norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -(suf2 / denom**3).sum() / p_norm
        return phi, phi_prime

    suf = s * uf
    s2, suf2 = s**2, suf**2
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0

    alpha_upper = _norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)

    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if abs(phi) < rtol * Delta:
            break

    p = -V.dot(suf / (s2 + alpha))
    # scaled onto the trust region's boundary, which it is within rtol of
    p *= Delta / _norm(p)
    return p, alpha


def _evaluate_quadratic(J, g, s, diag=None):
    """evaluate_quadratic: 0.5 * s^T (J^T J + diag(diag)) s + g^T s."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    if diag is not None:
        q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """build_quadratic_1d: (a, b[, c]) of the quadratic along s0 + t * s."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """minimize_quadratic_1d: (t, y) minimising y = a t^2 + b t + c over [lb, ub]."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    index = np.argmin(y)
    return t[index], y[index]


def _intersect_trust_region(x, s, Delta):
    """intersect_trust_region: the larger t with |x + t s| = Delta."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)
    q = -(b + math.copysign(d, b))
    t1 = q / a
    t2 = c / q
    return t2 if t1 < t2 else t1


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lower, theta):
    """select_step: the trust-region step p if it stays feasible; else the
    best of p cut short of the bound, its reflection off the bound, and
    the Cauchy step. Returns (step, step in hat space, predicted reduction).
    """
    if (x + p >= lower).all():
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag=diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lower)

    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # the reflected direction crosses the feasible region's boundary or the
    # trust region's first
    to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lower)

    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # p back inside the bound, strictly
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag=diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lower)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr
    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _update_tr_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    """update_tr_radius: (the new radius, actual over predicted reduction)."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _check_termination(dF, F, dx_norm, x_norm, ratio):
    """check_termination at ftol = xtol = TOL: the stop status, or None."""
    ftol_satisfied = dF < TOL * F and ratio > 0.25
    xtol_satisfied = dx_norm < TOL * (TOL + x_norm)
    if ftol_satisfied and xtol_satisfied:
        return FTOL_XTOL
    if ftol_satisfied:
        return FTOL
    if xtol_satisfied:
        return XTOL
    return None
