"""Shared manufactured-solution oracle for the stationary solver tests.

All pieces are polynomial so the forcing that balances the manufactured
stream function is available in closed form (sympy integrates the curl
relation exactly).  The stream function is clamped-homogeneous on the
unit square, so no boundary bookkeeping enters the convergence study.
"""

from functools import lru_cache

import numpy as np
import sympy as sm

from oddflow.stationary import (
    EtaFunction,
    RectDomain,
    StationaryProblem,
    homogeneous_boundary,
)
from oddflow.viscosity import DensityBounds, ViscosityLaw

AMP = 100.0
ETA_A, ETA_B = 1.0, 1.0          # eta(s) = 1 + s on the solution range
NU_E_A, NU_E_B = 0.75, 0.5       # nu_e(r) = 0.75 + 0.5 r
NU_O_B = 0.5                     # nu_o(r) = 0.5 r


@lru_cache(maxsize=1)
def build():
    """Returns (phi_fn, force1_fn, force2_fn, rhs_fn) as numpy callables."""
    x, y = sm.symbols("x y")
    phi = AMP * (x * (1 - x) * y * (1 - y)) ** 2
    rho = ETA_A + ETA_B * phi
    mu_e = NU_E_A + NU_E_B * rho
    mu_o = NU_O_B * rho

    def B(e):
        return sm.diff(e, y, 2) - sm.diff(e, x, 2)

    def T(e):
        return 2 * sm.diff(e, x, y)

    lhs = B(mu_e * B(phi)) + T(mu_e * T(phi)) + B(mu_o * T(phi)) - T(mu_o * B(phi))
    w1, w2 = -sm.diff(phi, y), sm.diff(phi, x)
    k11, k12, k22 = rho * w1 * w1, rho * w1 * w2, rho * w2 * w2
    conv = (
        sm.diff(k12, x, 2) - sm.diff(k12, y, 2)
        + sm.diff(k22 - k11, x, y)
    )
    # the solver's right side is conv - curl f; force it to equal lhs
    # via f = (0, F) with dF/dx = conv - lhs
    F = sm.integrate(sm.expand(conv - lhs), x)
    zero = sm.Integer(0)
    lam = lambda e: sm.lambdify((x, y), e, "numpy")
    return lam(phi), lam(zero), lam(F), lam(lhs)


def eta():
    # the clip is inactive on the solution range [0, ~0.4], so the
    # symbolic eta = 1 + s remains exact where it matters
    return EtaFunction(
        lambda s: np.clip(ETA_A + ETA_B * np.asarray(s, dtype=float), 0.0, 2.0),
        2.0,
    )


def law():
    bounds = DensityBounds(0.5, 1.5)
    return ViscosityLaw(
        lambda r: NU_E_A + NU_E_B * np.asarray(r, dtype=float),
        lambda r: NU_O_B * np.asarray(r, dtype=float),
        0.5, 2.0, bounds,
    )


def problem(nx):
    """Manufactured StationaryProblem with nx interior nodes per side."""
    phi_fn, f1_fn, f2_fn, _ = build()
    dom = RectDomain(nx, nx)
    xm, ym = dom.mid_coords()
    force1 = f1_fn(xm, ym) + np.zeros_like(xm)
    force2 = f2_fn(xm, ym) + np.zeros_like(xm)
    return StationaryProblem(dom, law(), eta(), force1, force2,
                             homogeneous_boundary(dom)), phi_fn


def solve_error(nx, picard_kwargs=None):
    """L2 error of the `picard_solve` solution against the manufactured phi."""
    from oddflow.stationary import picard_solve

    prob, phi_fn = problem(nx)
    sol = picard_solve(prob, **(picard_kwargs or {}))
    xm, ym = prob.domain.mid_coords()
    err = sol.phi - phi_fn(xm, ym)
    return float(np.sqrt(np.sum(err ** 2)) * prob.domain.h), sol
