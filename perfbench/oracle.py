"""The benchmark's oracle: the manufactured stationary solution and the
checks every solve's outputs must pass.  Nothing here is timed.

The checks read the artifacts a solve wrote and return a list of failure
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from oddflow.fields import divergence, norms
from oddflow.io import read_field

# Evolve checks, as in acceptance criteria 04 and 12.
T_END_TOL = 1e-12
BOUND_TOL = 1e-14
MASS_DRIFT = 1e-6
ENERGY_SLACK = 1e-6
DIV_LINF = 1e-8

# Stationary checks.  At nx = 63 the L2 error is 6.27e-6 to 6.28e-6
# times the amplitude for amplitudes in [95, 105] (6.27e-4 at 100).
PICARD_TOL = 1e-9
MMS_L2_ERROR_PER_AMP = 6.4e-6


def mms(amp):
    """(phi, force2) of the manufactured stationary solution as numpy
    callables of (x, y).

    phi = amp (x (1-x) y (1-y))^2 is clamped-homogeneous on the unit
    square, eta(s) = 1 + s, nu_e = 0.75 + 0.5 rho, nu_o = 0.5 rho.  The
    forcing f = (0, F) balances the solver's equation
    L[nu_e] phi + A[nu_o] phi = conv - curl f exactly: dF/dx = conv - lhs.
    """
    import sympy as sm

    x, y = sm.symbols("x y")
    phi = amp * (x * (1 - x) * y * (1 - y)) ** 2
    rho = 1 + phi
    mu_e = sm.Rational(3, 4) + rho / 2
    mu_o = rho / 2

    def B(e):
        return sm.diff(e, y, 2) - sm.diff(e, x, 2)

    def T(e):
        return 2 * sm.diff(e, x, y)

    lhs = B(mu_e * B(phi)) + T(mu_e * T(phi)) + B(mu_o * T(phi)) - T(mu_o * B(phi))
    w1, w2 = -sm.diff(phi, y), sm.diff(phi, x)
    k11, k12, k22 = rho * w1 * w1, rho * w1 * w2, rho * w2 * w2
    conv = sm.diff(k12, x, 2) - sm.diff(k12, y, 2) + sm.diff(k22 - k11, x, y)
    force2 = sm.integrate(sm.expand(conv - lhs), x)
    return (sm.lambdify((x, y), phi, "numpy"),
            sm.lambdify((x, y), force2, "numpy"))


def write_stationary_inputs(nx, amp, inputs_dir):
    """Forcing (the solver's input) and exact phi (the check's reference)
    on the mid grid of the unit square with nx interior nodes."""
    phi_fn, force2_fn = mms(amp)
    nodes = np.arange(nx + 2) / (nx + 1)
    xm, ym = np.meshgrid(nodes, nodes, indexing="ij")
    np.save(os.path.join(inputs_dir, "force2.npy"), force2_fn(xm, ym) + 0.0 * xm)
    np.save(os.path.join(inputs_dir, "phi_exact.npy"), phi_fn(xm, ym) + 0.0 * xm)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def check_evolve(out, data, t_end):
    """Failures of an evolve solve against its initial data."""
    try:
        rho, t = read_field(os.path.join(out, "density.odf"))
        u, _ = read_field(os.path.join(out, "velocity.odf"))
        read_field(os.path.join(out, "pressure.odf"))
        _, energy = _read_csv(os.path.join(out, "energy.csv"))
    except (OSError, ValueError) as e:    # the field types reject non-finite data
        return [f"artifacts unreadable or non-finite: {e}"]
    fails = []
    if abs(t - t_end) > T_END_TOL or abs(energy[-1, 0] - t_end) > T_END_TOL:
        fails.append(f"stopped at t = {t!r}, not t_end = {t_end!r}")
    if not np.all(np.isfinite(energy)):
        fails.append("energy ledger is not finite")
    rho0 = data.rho0.values
    lo, hi = float(rho0.min()), float(rho0.max())
    excess = max(lo - float(rho.values.min()), float(rho.values.max()) - hi)
    if excess > BOUND_TOL:
        fails.append(f"density leaves [{lo!r}, {hi!r}] by {excess:.3e}")
    mass0 = float(np.sum(rho0))
    drift = abs(float(np.sum(rho.values)) - mass0) / abs(mass0)
    if drift > MASS_DRIFT:
        fails.append(f"relative mass drift {drift:.3e}")
    kinetic = energy[:, 1]
    rise = float(np.max(np.diff(kinetic), initial=0.0))
    if rise > ENERGY_SLACK * kinetic[0]:
        fails.append(f"kinetic energy rises by {rise:.3e}")
    div = norms(divergence(u))["linf"]
    if not div <= DIV_LINF:
        fails.append(f"final divergence {div:.3e}")
    return fails


def check_stationary(out, inputs_dir, amp):
    """Failures of a stationary solve against the manufactured phi of
    amplitude `amp`."""
    try:
        _, iters = _read_csv(os.path.join(out, "iterations.csv"))
        _, sol = _read_csv(os.path.join(out, "solution.csv"))
    except (OSError, ValueError) as e:
        return [f"artifacts unreadable: {e}"]
    fails = []
    if not iters[-1, 1] <= PICARD_TOL:
        fails.append(f"Picard stopped at update {iters[-1, 1]:.3e}")
    exact = np.load(os.path.join(inputs_dir, "phi_exact.npy"))
    n = exact.shape[0]
    if sol.shape != (exact.size, 5):
        return fails + [f"solution has shape {sol.shape}"]
    phi = np.full_like(exact, np.nan)
    phi[sol[:, 0].astype(int), sol[:, 1].astype(int)] = sol[:, 2]
    err = float(np.sqrt(np.sum((phi - exact) ** 2))) / (n - 1)
    if not err <= MMS_L2_ERROR_PER_AMP * amp:
        fails.append(f"L2 error {err:.4e} against the manufactured phi")
    return fails
