"""Caplet volatility curve families and shape-preserving interpolants.

Each family's curve has one definition, its cells (_cells): the weights
at each time t on the two nodes of its cell, and for the Hermite families
on their slopes too. basis_matrix and hermite_basis scatter them into the
solvers' dense matrices; VolCurve gathers them, with no times x nodes
matrix. Node times tau are strictly increasing (years), the curves are
flat outside the nodes and vectorized in t. The kernel-transition
family places a ramp of width beta*delta centred mid-cell, so that for
beta <= 1 the curve agrees with the piecewise constant one at every
caplet fixing time (multiples of delta).
"""

import enum

import numpy as np
from scipy.linalg import lapack

from .term_structures import InputError


class TransitionKernel(enum.Enum):
    """Integrated transition kernels Psi: [0,1] -> [0,1]."""

    RECT = "rect"
    SMOOTHSTEP = "smoothstep"
    COSINE = "cosine"
    QUINTIC = "quintic"

    def weight(self, s):
        s = np.clip(s, 0.0, 1.0)
        if self is TransitionKernel.RECT:
            return s
        if self is TransitionKernel.SMOOTHSTEP:
            return s * s * (3.0 - 2.0 * s)
        if self is TransitionKernel.COSINE:
            return 0.5 * (1.0 - np.cos(np.pi * s))
        return s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


FAMILIES = (
    "flat",
    "flat-linear",
    "flat-smooth",
    "cosine",
    "quintic",
    "linear",
    "cubic",
    "hyman",
)

_KERNEL_FAMILIES = {
    "flat-linear": TransitionKernel.RECT,
    "flat-smooth": TransitionKernel.SMOOTHSTEP,
    "cosine": TransitionKernel.COSINE,
    "quintic": TransitionKernel.QUINTIC,
}


def _check_nodes(taus, vols):
    taus = np.asarray(taus, dtype=float)
    vols = np.asarray(vols, dtype=float)
    if taus.ndim != 1 or taus.shape != vols.shape or len(taus) == 0:
        raise InputError("node times and values must be matching 1-d arrays")
    if np.any(np.diff(taus) <= 0):
        raise InputError("node times must be strictly increasing")
    return taus, vols


def check_family(family):
    """The vol family is one of FAMILIES."""
    if family not in FAMILIES:
        raise InputError(f"unknown vol family {family!r}")


def check_beta(beta):
    """The kernel ramp width, as a fraction of the tenor, lies in [0, 1]."""
    if not 0.0 <= beta <= 1.0:
        raise InputError("beta must lie in [0, 1]")


def _cells(family, taus, t, beta=1.0, delta=1.0 / 12.0):
    """A family's curve at 1-d times t as (k0, k1, (w0, w1), slopes).

    The curve is w0 v[k0] + w1 v[k1] in the node values v, plus
    b0 d[k0] + b1 d[k1] in the node slopes d where slopes = (b0, b1) is not
    None (cubic from three nodes, hyman). k1 = k0 + 1, but on one node,
    where k0 = k1 = 0 and the curve is the constant (w0, w1) = (1, 0).
    """
    kernel = _KERNEL_FAMILIES.get(family)
    if kernel is not None:
        check_beta(beta)
    if len(taus) == 1:
        node = np.zeros(len(t), dtype=int)
        return node, node, (np.ones(len(t)), np.zeros(len(t))), None
    if family == "flat":
        return _ramp_cells(taus, t, None, 0.0, 0.0)
    if kernel is not None:
        return _ramp_cells(taus, t, kernel, 0.5 * delta, 0.5 * beta * delta)
    if family == "linear" or (family == "cubic" and len(taus) < 3):
        return _hat_cells(taus, t)
    return _hermite_cells(taus, t)


def _ramp_cells(taus, t, kernel, offset, half):
    """Cells of a curve that is flat but for one ramp per cell.

    Ramp k goes from v_k to v_k+1 by kernel over [a_k, b_k], a_k =
    max(tau_k, c_k - half) and b_k = min(tau_k+1, c_k + half) around
    c_k = tau_k + offset, and is a step at a_k where b_k <= a_k (flat:
    steps at the nodes). A cell shorter than offset - half puts its step
    past the next node. No ramp starts before the one before it ends, so
    t's ramp is the first not ended by t, found among the ramp ends (b_k,
    or a_k for a step), not among the node times.
    """
    lefts = taus[:-1]
    centres = lefts + offset
    a = np.maximum(lefts, centres - half)
    b = np.minimum(taus[1:], centres + half)
    wide = b > a
    k = np.minimum(np.searchsorted(np.where(wide, b, a), t, side="left"), len(lefts) - 1)
    start = a[k]
    if kernel is None:
        psi = (t > start).astype(float)
    else:
        width = np.where(wide, b - a, 1.0)[k]
        psi = np.where(wide[k], kernel.weight((t - start) / width), t > start)
    return k, k + 1, (1.0 - psi, psi), None


def _hat_cells(taus, t):
    """Cells of np.interp, in its own arithmetic, so that the scattered rows
    are its weights to the bit: w1 = (1/h) (t - tau_k) on [tau_k, tau_k+1),
    where its w0 = (-1/h) (t - tau_k) + 1 is exactly 1 - w1, and unit weights
    before the first node and at or beyond the last, where (1/h) h need not
    be exactly 1."""
    k = np.clip(np.searchsorted(taus, t, side="right") - 1, 0, len(taus) - 2)
    left = taus[k]
    w1 = (1.0 / (taus[k + 1] - left)) * (t - left)
    w1[t < taus[0]] = 0.0
    w1[t >= taus[-1]] = 1.0
    return k, k + 1, (1.0 - w1, w1), None


def _hermite_cells(x, t):
    """Cells of the cubic Hermite interpolant, flat beyond the nodes."""
    k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    left = x[k]
    h = x[k + 1] - left
    u = (np.clip(t, x[0], x[-1]) - left) / h
    rest = (1.0 - u) ** 2
    hu = h * u
    values = ((1.0 + 2.0 * u) * rest, u * u * (3.0 - 2.0 * u))
    slopes = (hu * rest, hu * u * (u - 1.0))
    return k, k + 1, values, slopes


def _gather(cells, values, slopes=None):
    """The curve at the cells' times, for node values (and node slopes)."""
    k0, k1, (w0, w1), slope_weights = cells
    curve = w0 * values[k0]
    curve += w1 * values[k1]
    if slope_weights is not None:
        curve += slope_weights[0] * slopes[k0]
        curve += slope_weights[1] * slopes[k1]
    return curve


def _scatter(n, k0, k1, w0, w1):
    """The dense matrix with w0 at (row, k0) and w1 at (row, k1), a row per time."""
    matrix = np.zeros((len(k0), n))
    rows = np.arange(len(k0))
    matrix[rows, k1] = w1
    # last: on a single node k0 = k1, and its weight is w0
    matrix[rows, k0] = w0
    return matrix


def build_monotone_c2(x, f):
    """C2 cubic with a monotonicity filter on the node derivatives.

    Starts from the natural spline slopes and limits them against the
    secants (zero at local extrema, magnitude at most three times the
    smaller adjacent secant), then rebuilds a Hermite interpolant. On
    monotone data the result is monotone with no overshoot. Flat
    extrapolation outside the node range.
    """
    x, f = _check_nodes(x, f)
    n = len(x)
    if n == 1:
        return lambda t: np.full(np.shape(np.asarray(t, dtype=float)), f[0])
    s = np.diff(f) / np.diff(x)
    # two nodes make a straight line, whose secant slopes the filter keeps
    d = np.full(2, s[0]) if n == 2 else natural_slope_map(x) @ f

    def limited(slope, *secants):
        secants = [sec for sec in secants if sec is not None]
        if any(sec == 0.0 for sec in secants):
            return 0.0
        sign = np.sign(secants[0])
        if any(np.sign(sec) != sign for sec in secants) or np.sign(slope) != sign:
            return 0.0
        return sign * min(abs(slope), 3.0 * min(abs(sec) for sec in secants))

    d[0] = limited(d[0], s[0])
    for k in range(1, n - 1):
        d[k] = limited(d[k], s[k - 1], s[k])
    d[n - 1] = limited(d[n - 1], s[n - 2])

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        return _gather(_hermite_cells(x, t.ravel()), f, d).reshape(t.shape)

    return evaluate


def hermite_basis(x, t):
    """Matrices (A, B) with hermite(t) = A @ f + B @ d.

    The cubic Hermite interpolant through node values f with node slopes d
    is linear in both; its flat extrapolation clamps t to the node range.
    A and B scatter hyman's cells, the plain Hermite ones.
    """
    x = np.asarray(x, dtype=float)
    k0, k1, values, slopes = _cells("hyman", x, np.asarray(t, dtype=float))
    # one node has no slope weights
    return _scatter(len(x), k0, k1, *values), _scatter(len(x), k0, k1, *(slopes or (0.0, 0.0)))


def natural_slope_map(x):
    """Matrix S with d = S @ f, the node slopes of the natural C2 cubic.

    The slopes solve the tridiagonal system of Hagan & West (2006), on the
    secants s_k = (f_k+1 - f_k) / h_k: continuous second derivatives inside,
    h_k d_k-1 + 2 (h_k-1 + h_k) d_k + h_k-1 d_k+1 = 3 (h_k s_k-1 + h_k-1 s_k),
    and zero second derivatives at the ends, 2 d_0 + d_1 = 3 s_0 and
    d_n-2 + 2 d_n-1 = 3 s_n-2. Needs at least two nodes.
    """
    n = len(x)
    h = np.diff(x)
    # row k reads lower[k-1] d_k-1 + main[k] d_k + upper[k] d_k+1; the right
    # side weighs s_k-1 and s_k by three times lower[k-1] and upper[k]
    lower = np.concatenate((h[1:], [1.0]))
    main = np.concatenate(([2.0], 2.0 * (h[:-1] + h[1:]), [2.0]))
    upper = np.concatenate(([1.0], h[:-1]))
    secants = (np.eye(n - 1, n, 1) - np.eye(n - 1, n)) / h[:, None]
    rhs = np.zeros((n, n))
    rhs[1:] += 3.0 * lower[:, None] * secants
    rhs[:-1] += 3.0 * upper[:, None] * secants
    # diagonally dominant, so the solve cannot fail
    return lapack.dgtsv(lower, main, upper, rhs)[3]


def hyman_slopes(x, f):
    """Node slopes (d, S) of the non-negative Hyman spline, with d = S @ f.

    Bessel (parabolic) interior slopes, d_1 = s_1 and a flat right end,
    then the non-negativity clamp: d_k = 0 when f_k <= 0, otherwise
    d_k <= 3 f_k / h_{k-1} and d_k >= -3 f_k / h_k. S is the linear map
    of the active clamp set: row k is the Bessel (or secant) row, a zero
    row (flat right end, or f_k <= 0), or +-3/h e_k where a bound binds,
    so the spline is linear in f for as long as the clamp set holds.
    """
    n = len(x)
    d = np.zeros(n)
    slope_map = np.zeros((n, n))
    if n <= 1:
        return d, slope_map
    h = np.diff(x)
    s = np.diff(f) / h
    d[0] = s[0]
    slope_map[0, :2] = -1.0 / h[0], 1.0 / h[0]
    for k in range(1, n - 1):
        width = h[k - 1] + h[k]
        d[k] = (h[k] * s[k - 1] + h[k - 1] * s[k]) / width
        left = -h[k] / (h[k - 1] * width)
        right = h[k - 1] / (h[k] * width)
        slope_map[k, k - 1 : k + 2] = left, -(left + right), right
    for k in range(n):
        if f[k] <= 0.0:
            d[k] = 0.0
            slope_map[k] = 0.0
            continue
        if k > 0 and d[k] > 3.0 * f[k] / h[k - 1]:
            d[k] = 3.0 * f[k] / h[k - 1]
            slope_map[k] = 0.0
            slope_map[k, k] = 3.0 / h[k - 1]
        if k < n - 1 and d[k] < -3.0 * f[k] / h[k]:
            d[k] = -3.0 * f[k] / h[k]
            slope_map[k] = 0.0
            slope_map[k, k] = -3.0 / h[k]
    return d, slope_map


class VolCurve:
    """A vol curve family bound to node times and values; callable in t.

    A call gathers the family's cells on the node values, and on the node
    slopes of cubic (natural_slope_map) and hyman (hyman_slopes).
    """

    def __init__(self, family, taus, vols, beta=1.0, delta=1.0 / 12.0):
        check_family(family)
        self.family = family
        self.taus, self.vols = _check_nodes(taus, vols)
        self.beta = beta
        self.delta = delta

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        cells = _cells(self.family, self.taus, t.ravel(), self.beta, self.delta)
        if cells[3] is None:  # no slope weights
            slopes = None
        elif self.family == "hyman":
            slopes = hyman_slopes(self.taus, self.vols)[0]
        else:
            slopes = natural_slope_map(self.taus) @ self.vols
        return _gather(cells, self.vols, slopes).reshape(t.shape)


def basis_matrix(family, taus, t, beta=1.0, delta=1.0 / 12.0):
    """Matrix W with VolCurve(family, taus, v, beta, delta)(t) == W @ v.

    For every family linear in its node values (all but hyman): its cells
    scattered, for cubic from three nodes A + B @ S with the natural
    spline's slope map S. linear's rows are np.interp's weights to the bit.
    """
    check_family(family)
    if family == "hyman":
        raise InputError(f"vol family {family!r} is not linear in its node values")
    taus = np.asarray(taus, dtype=float)
    n = len(taus)
    k0, k1, values, slopes = _cells(family, taus, np.asarray(t, dtype=float), beta, delta)
    matrix = _scatter(n, k0, k1, *values)
    if slopes is not None:
        matrix += _scatter(n, k0, k1, *slopes) @ natural_slope_map(taus)
    return matrix
