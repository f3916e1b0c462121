"""Semi-Lagrangian transport on the periodic torus.

The pointwise bicubic gather is the hot loop of the evolutionary solver;
a compiled kernel is used when available, with a vectorized numpy
fallback selected at import time (see USING_COMPILED).  Both velocity
components are interpolated at the midpoints in one stacked call.
"""

from __future__ import annotations

import numpy as np

try:
    from . import _semilag_cy as _kernel

    USING_COMPILED = True
except ImportError:  # pragma: no cover - depends on build environment
    from . import _semilag_np as _kernel

    USING_COMPILED = False

from . import _semilag_np
from .fields import Grid2D, ScalarField, VectorField


def interp_bicubic(grid: Grid2D, values, x1, x2, clamp=True, compiled=None):
    """Interpolate nodal values at arbitrary points; periodic wrap-around.

    `values` is one (n1, n2) plane, or a (k, n1, n2) stack of planes
    sampled at the same points; the result has the shape of x1, with a
    leading axis of length k for a stack.  The numpy twin shares the
    stencil geometry across a stack in one call; the compiled kernel
    takes one plane per call.

    `compiled` picks the kernel: None the one selected at import time,
    False the numpy twin, True the compiled extension or nothing (raises
    ImportError when `oddflow._semilag_cy` is not built).
    """
    if compiled and not USING_COMPILED:
        raise ImportError(
            "compiled kernel requested but oddflow._semilag_cy is not built "
            "(python setup.py build_ext --inplace)",
            name="oddflow._semilag_cy",
        )
    kern = _kernel if compiled is None else (_kernel if compiled else _semilag_np)
    values = np.ascontiguousarray(values, dtype=float)
    shape = np.shape(x1)
    x1 = np.ravel(np.asarray(x1, dtype=float))
    x2 = np.ravel(np.asarray(x2, dtype=float))
    if values.ndim == 3 and kern is not _semilag_np:
        out = np.stack([kern.bicubic_periodic(v, x1, x2, grid.h1, grid.h2, clamp)
                        for v in values])
    else:
        out = kern.bicubic_periodic(values, x1, x2, grid.h1, grid.h2, clamp)
    return np.reshape(out, values.shape[:-2] + shape)


def departure_points(grid: Grid2D, u: VectorField, dt: float):
    """Midpoint backtracking: x - dt * u(x - dt/2 * u(x))."""
    x1, x2 = grid.coords()
    xm1 = x1 - 0.5 * dt * u.comp1
    xm2 = x2 - 0.5 * dt * u.comp2
    um1, um2 = interp_bicubic(grid, np.stack((u.comp1, u.comp2)), xm1, xm2,
                              clamp=False)
    return x1 - dt * um1, x2 - dt * um2


def advect_scalar(s: ScalarField, u: VectorField, dt: float,
                  conserve_mass=True) -> ScalarField:
    """One semi-Lagrangian transport step for a scalar.

    Clamped interpolation keeps the output inside [min s, max s] exactly,
    with no global clip: each value lies between the min and max of its
    own 2x2 nodes.  The optional conservative fix restores the grid
    integral while staying inside those bounds.
    """
    grid = s.grid
    d1, d2 = departure_points(grid, u, dt)
    vals = interp_bicubic(grid, s.values, d1, d2, clamp=True)
    lo, hi = float(np.min(s.values)), float(np.max(s.values))
    if conserve_mass:
        vals = _restore_mass(vals, float(np.sum(s.values)), lo, hi)
    return ScalarField(grid, vals)


def _restore_mass(vals, target_sum, lo, hi):
    """Distribute the mass defect over cells with slack toward the bound.

    The correction is proportional to the distance from the active bound,
    so the result stays inside [lo, hi] whenever the defect is small
    enough to be absorbable.
    """
    defect = target_sum - float(np.sum(vals))
    if defect == 0.0:
        return vals
    slack = (hi - vals) if defect > 0 else (vals - lo)
    total = float(np.sum(slack))
    if total <= 0.0:
        return vals
    frac = min(1.0, abs(defect) / total)
    return vals + np.sign(defect) * frac * slack
