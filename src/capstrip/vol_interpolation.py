"""Caplet volatility curve families and shape-preserving interpolants.

All evaluators share the same conventions: node times tau strictly
increasing (years), flat extrapolation on both sides, vectorized in t.
The kernel-transition family places a ramp of width beta*delta centred
mid-cell, so that for beta <= 1 the curve agrees with the piecewise
constant one at every caplet fixing time (multiples of delta).
"""

import enum

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline

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


def _check_nodes(taus, vols):
    taus = np.asarray(taus, dtype=float)
    vols = np.asarray(vols, dtype=float)
    if taus.ndim != 1 or taus.shape != vols.shape or len(taus) == 0:
        raise InputError("node times and values must be matching 1-d arrays")
    if np.any(np.diff(taus) <= 0):
        raise InputError("node times must be strictly increasing")
    return taus, vols


def check_beta(beta):
    """The kernel ramp width, as a fraction of the tenor, lies in [0, 1]."""
    if not 0.0 <= beta <= 1.0:
        raise InputError("beta must lie in [0, 1]")


def eval_piecewise_constant(taus, vols, t):
    """Step-forward curve: sigma(t) = v_k on (tau_{k-1}, tau_k]."""
    taus, vols = _check_nodes(taus, vols)
    t = np.asarray(t, dtype=float)
    idx = np.clip(np.searchsorted(taus, t, side="left"), 0, len(taus) - 1)
    return vols[idx]


def eval_kernel(taus, vols, kernel, beta, delta, t):
    """Kernel-transition curve: flat segments joined by mid-cell ramps.

    Ramp k sits at c_k = tau_{k-1} + delta/2 with half-width beta*delta/2,
    clipped to the cell. beta = 0 degenerates to a step at c_k.
    """
    taus, vols = _check_nodes(taus, vols)
    check_beta(beta)
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, vols[0])
    half = 0.5 * beta * delta
    for k in range(1, len(taus)):
        c = taus[k - 1] + 0.5 * delta
        a = max(taus[k - 1], c - half)
        b = min(taus[k], c + half)
        if b > a:
            w = kernel.weight((t - a) / (b - a))
        else:
            w = (t > a).astype(float)
        out = out + (vols[k] - vols[k - 1]) * w
    return out


def eval_linear(taus, vols, t):
    taus, vols = _check_nodes(taus, vols)
    return np.interp(np.asarray(t, dtype=float), taus, vols)


def eval_cubic_c2(taus, vols, t):
    """Natural C2 cubic through the nodes, flat outside the node range."""
    taus, vols = _check_nodes(taus, vols)
    t = np.asarray(t, dtype=float)
    if len(taus) < 3:
        return np.interp(t, taus, vols)
    spline = CubicSpline(taus, vols, bc_type="natural")
    return spline(np.clip(t, taus[0], taus[-1]))


def _clamped_hermite(x, f, d):
    hermite = CubicHermiteSpline(x, f, d)
    lo, hi = x[0], x[-1]

    def evaluate(t):
        return hermite(np.clip(np.asarray(t, dtype=float), lo, hi))

    return evaluate


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
    if n == 2:
        return _clamped_hermite(x, f, np.full(2, (f[1] - f[0]) / (x[1] - x[0])))
    d = CubicSpline(x, f, bc_type="natural")(x, 1)
    s = np.diff(f) / np.diff(x)

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
    return _clamped_hermite(x, f, d)


def hermite_basis(x, t):
    """Matrices (A, B) with hermite(t) = A @ f + B @ d.

    The cubic Hermite interpolant through node values f with node slopes d
    is linear in both; its flat extrapolation clamps t to the node range.
    """
    x = np.asarray(x, dtype=float)
    t = np.clip(np.asarray(t, dtype=float), x[0], x[-1])
    n = len(x)
    a = np.zeros((len(t), n))
    b = np.zeros((len(t), n))
    if n == 1:
        a[:, 0] = 1.0
        return a, b
    k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2)
    h = x[k + 1] - x[k]
    u = (t - x[k]) / h
    rows = np.arange(len(t))
    a[rows, k] = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    a[rows, k + 1] = u * u * (3.0 - 2.0 * u)
    b[rows, k] = h * u * (1.0 - u) ** 2
    b[rows, k + 1] = h * u * u * (u - 1.0)
    return a, b


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
    if n == 1:
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


def build_hyman_nonneg_c1(x, f):
    """C1 cubic that stays non-negative wherever the node values are.

    Slopes from hyman_slopes; flat extrapolation outside the node range.
    """
    x, f = _check_nodes(x, f)
    if len(x) == 1:
        return lambda t: np.full(np.shape(np.asarray(t, dtype=float)), f[0])
    d, _ = hyman_slopes(x, f)
    return _clamped_hermite(x, f, d)


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


class VolCurve:
    """A vol curve family bound to node times and values; callable in t."""

    def __init__(self, family, taus, vols, beta=1.0, delta=1.0 / 12.0):
        if family not in FAMILIES:
            raise InputError(f"unknown vol family {family!r}")
        self.family = family
        self.taus, self.vols = _check_nodes(taus, vols)
        self.beta = beta
        self.delta = delta
        if family == "hyman":
            self._eval = build_hyman_nonneg_c1(self.taus, self.vols)
        else:
            self._eval = None

    def __call__(self, t):
        if self.family == "flat":
            return eval_piecewise_constant(self.taus, self.vols, t)
        if self.family in _KERNEL_FAMILIES:
            return eval_kernel(
                self.taus, self.vols, _KERNEL_FAMILIES[self.family], self.beta, self.delta, t
            )
        if self.family == "linear":
            return eval_linear(self.taus, self.vols, t)
        if self.family == "cubic":
            return eval_cubic_c2(self.taus, self.vols, t)
        return self._eval(t)
