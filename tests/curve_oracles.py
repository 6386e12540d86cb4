"""Reference evaluators of the vol curve families, written apart from capstrip's.

Each follows its family's definition by the most direct route: flat by
searchsorted indexing, the kernel families as the first node value plus
every node's increment times its ramp, linear by np.interp, cubic by
scipy's natural CubicSpline and hyman by scipy's CubicHermiteSpline on
hyman_slopes' node slopes. Tests hold VolCurve and basis_matrix to them.
"""

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from capstrip.vol_interpolation import TransitionKernel, hyman_slopes

KERNELS = {
    "flat-linear": TransitionKernel.RECT,
    "flat-smooth": TransitionKernel.SMOOTHSTEP,
    "cosine": TransitionKernel.COSINE,
    "quintic": TransitionKernel.QUINTIC,
}


def family_oracle(family, taus, values, t, beta=1.0, delta=1.0 / 12.0):
    """The family's curve through (taus, values) at times t."""
    taus, values, t = (np.asarray(a, dtype=float) for a in (taus, values, t))
    if family == "flat":
        return values[np.clip(np.searchsorted(taus, t, side="left"), 0, len(taus) - 1)]
    if family in KERNELS:
        # ramp k sits at c = tau_k-1 + delta/2 with half-width beta*delta/2,
        # clipped to its cell; with no width left it is a step at its start
        out = np.full(t.shape, values[0])
        half = 0.5 * beta * delta
        for k in range(1, len(taus)):
            c = taus[k - 1] + 0.5 * delta
            a = max(taus[k - 1], c - half)
            b = min(taus[k], c + half)
            ramp = KERNELS[family].weight((t - a) / (b - a)) if b > a else (t > a).astype(float)
            out = out + (values[k] - values[k - 1]) * ramp
        return out
    if family == "linear" or (family == "cubic" and len(taus) < 3):
        return np.interp(t, taus, values)
    if len(taus) == 1:
        return np.full(t.shape, values[0])
    clamped = np.clip(t, taus[0], taus[-1])
    if family == "cubic":
        return CubicSpline(taus, values, bc_type="natural")(clamped)
    return CubicHermiteSpline(taus, values, hyman_slopes(taus, values)[0])(clamped)
