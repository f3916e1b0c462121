"""Symmetry-reduced stationary flows: parallel, concentric and radial.

Each symmetry class reduces the stationary momentum system to an ODE for
a scalar profile; the removed components are balanced by an explicitly
reconstructed pressure.  The module provides the three profile solvers,
a full-residual verification that substitutes profile plus pressure back
into the unreduced vector equations on a 2D verification grid, and the
numerical demonstration that the radial problem with zero shear
viscosity and a jump in the odd viscosity admits no H1 profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .viscosity import ViscosityLaw


# ----------------------------------------------------------------- types

def _require_finite(problem, *names):
    for name in names:
        if not math.isfinite(getattr(problem, name)):
            raise ValueError(f"{name} must be finite")


def _require_nodes(n):
    # the residual check differences the profile and drops two nodes at
    # each end, so it needs one node left in between
    if n < 5:
        raise ValueError("n must be at least 5")


@dataclass(frozen=True)
class ParallelProblem:
    """Shear flow u = u1(x2) e1 between x2 = a and x2 = b.

    Reduced equations: d2(mu_e d2 u1) = C and, in strict mode, also
    d2(mu_o d2 u1) = 0.  In pressure_absorbed mode the odd term is
    balanced by the pressure component beta(x2) instead.
    """

    rho_profile: Callable[[np.ndarray], np.ndarray]
    law: ViscosityLaw
    C: float
    a: float
    b: float
    u_a: float
    u_b: float
    mode: str = "pressure_absorbed"
    n: int = 257
    breakpoints: tuple = ()

    def __post_init__(self):
        _require_finite(self, "C", "a", "b", "u_a", "u_b")
        if self.mode not in ("strict", "pressure_absorbed"):
            raise ValueError("mode must be 'strict' or 'pressure_absorbed'")
        if self.b <= self.a:
            raise ValueError("need b > a")
        _require_nodes(self.n)


@dataclass(frozen=True)
class ConcentricProblem:
    """Circular flow u = r g(r) e_theta on the annulus [r_in, r_out].

    Reduced equation: d_r(r^3 mu_e d_r g) = C r, so
    g'(r) = (C r^2 / 2 + C1) / (r^3 mu_e).
    """

    rho_profile: Callable[[np.ndarray], np.ndarray]
    law: ViscosityLaw
    C: float
    C1: float
    r_in: float
    r_out: float
    g_in: float = 0.0
    n: int = 257
    breakpoints: tuple = ()

    def __post_init__(self):
        _require_finite(self, "C", "C1", "r_in", "r_out", "g_in")
        if self.r_in <= 0:
            raise ValueError("r_in must be positive (excludes the origin)")
        if self.r_out <= self.r_in:
            raise ValueError("need r_out > r_in")
        _require_nodes(self.n)


@dataclass(frozen=True)
class RadialProblem:
    """Source/sink flow u = (h(theta)/r) e_r with 2 pi periodic profile.

    Reduced equation:
    rho h^2 + d(mu_e dh) - 2 d(mu_o h) + 4 mu_e h + 2 mu_o dh = C,
    with d the theta derivative.  Solved by Fourier collocation and
    Newton iteration from the constant-coefficient root.
    """

    rho_profile: Callable[[np.ndarray], np.ndarray]
    law: ViscosityLaw
    C: float
    collocation_n: int = 64

    def __post_init__(self):
        _require_finite(self, "C")
        n = self.collocation_n
        if n < 32 or (n & (n - 1)) != 0:
            raise ValueError("collocation_n must be a power of two >= 32")


@dataclass
class SymmetricSolution:
    kind: str                     # "parallel" | "concentric" | "radial"
    nodes: np.ndarray             # x2, r, or theta samples
    profile: np.ndarray           # u1, g, or h at the nodes
    pressure: dict                # reconstruction pieces, kind-specific
    extras: dict = field(default_factory=dict)


def _coefficients(p, nodes):
    """Density and the even and odd viscosities of `p` at `nodes`."""
    rho = np.asarray(p.rho_profile(nodes), dtype=float)
    return rho, p.law.mu_e(rho), p.law.mu_o(rho)


# -------------------------------------------------------------- parallel

def _cumquad(fn, nodes, breakpoints):
    """Cumulative integral of fn from nodes[0] along the nodes, adaptive
    per interval with known discontinuity locations honored."""
    out = np.zeros_like(nodes)
    for k in range(1, len(nodes)):
        pts = [p for p in breakpoints if nodes[k - 1] < p < nodes[k]]
        val, _ = quad(fn, nodes[k - 1], nodes[k], points=pts or None, limit=200)
        out[k] = out[k - 1] + val
    return out


def solve_parallel(p: ParallelProblem) -> SymmetricSolution:
    """Integrate mu_e u1' = C x2 + C1 with C1 fixed by the wall values.

    Strict mode additionally reports how far mu_o u1' is from constant
    (the incompatibility of the second reduced equation); the
    pressure_absorbed mode balances that term with beta(x2) = mu_o u1'.
    """
    x = np.linspace(p.a, p.b, p.n)

    # the integrands take a scalar (from quad) or the node array
    def inv_mu(s):
        return 1.0 / p.law.mu_e(np.asarray(p.rho_profile(s), dtype=float))

    def x_inv_mu(s):
        return s * inv_mu(s)

    i1, _ = quad(inv_mu, p.a, p.b, points=list(p.breakpoints) or None, limit=200)
    ix, _ = quad(x_inv_mu, p.a, p.b, points=list(p.breakpoints) or None, limit=200)
    c1 = (p.u_b - p.u_a - p.C * ix) / i1

    def uprime(s):
        return (p.C * s + c1) * inv_mu(s)

    u1 = p.u_a + _cumquad(uprime, x, p.breakpoints)
    beta = _coefficients(p, x)[2] * uprime(x)    # d2 pi = beta'(x2)
    extras = {"C1": c1}
    if p.mode == "strict":
        h = x[1] - x[0]
        dq = np.gradient(beta, h)
        extras["incompatibility"] = float(np.sqrt(np.trapezoid(dq**2, x)))
    return SymmetricSolution("parallel", x, u1,
                             {"C": p.C, "beta": beta}, extras=extras)


# ------------------------------------------------------------ concentric

def solve_concentric(p: ConcentricProblem) -> SymmetricSolution:
    """g'(r) = (C r^2/2 + C1) / (r^3 mu_e(rho(r))), integrated from r_in.

    The odd viscosity never enters the profile: its contribution is a
    radial gradient absorbed by beta(r) in pi = -C theta + beta(r).
    """
    r = np.linspace(p.r_in, p.r_out, p.n)

    def gprime(s):
        me = p.law.mu_e(np.asarray(p.rho_profile(s), dtype=float))
        return (p.C * s * s / 2.0 + p.C1) / (s**3 * me)

    g = p.g_in + _cumquad(gprime, r, p.breakpoints)
    rho, _, mo = _coefficients(p, r)
    gp = gprime(r)

    # beta'(r) = r rho g^2 + d_r(mu_o r^3 g') / r^2, integrated numerically
    h = r[1] - r[0]
    q = mo * r**3 * gp
    betap = r * rho * g**2 + np.gradient(q, h) / r**2
    beta = np.concatenate(([0.0], np.cumsum(0.5 * h * (betap[1:] + betap[:-1]))))
    return SymmetricSolution(
        "concentric", r, g,
        {"alpha_tilde": -p.C, "beta": beta, "beta_prime": betap},
        extras={"g_prime": gp},
    )


# ---------------------------------------------------------------- radial

def _spectral_deriv_matrix(n):
    """Dense first-derivative matrix of the n-point Fourier collocation."""
    k = np.fft.rfftfreq(n, d=1.0 / n)
    k[-1] = 0.0                           # drop the unpaired Nyquist mode
    eye = np.eye(n)
    return np.fft.irfft(1j * k[None, :] * np.fft.rfft(eye, axis=1), n=n, axis=1)


def solve_radial(p: RadialProblem, tol=1e-10, max_iter=50) -> SymmetricSolution:
    """Newton iteration on the Fourier-collocated radial profile equation.

    Starts from the positive root of the constant-coefficient reduction
    rho_bar h^2 + 4 mu_e_bar h = C and records the residual history (the
    last steps contract quadratically).  Which root is reached depends on
    this starting point; the solver documents the branch via extras.
    """
    n = p.collocation_n
    theta = 2.0 * np.pi * np.arange(n) / n
    d = _spectral_deriv_matrix(n)
    rho, me, mo = _coefficients(p, theta)
    rho_bar = float(np.mean(rho))
    me_bar = float(np.mean(me))
    if p.C == 0.0:
        h = np.zeros(n)
    else:
        disc = 4.0 * me_bar**2 + rho_bar * p.C
        if disc < 0:
            raise ValueError("no real constant-coefficient root to start from")
        h = np.full(n, (-2.0 * me_bar + np.sqrt(disc)) / rho_bar)
    history = []
    for _ in range(max_iter):
        dh = d @ h
        f = (
            rho * h * h + d @ (me * dh) - 2.0 * (d @ (mo * h))
            + 4.0 * me * h + 2.0 * mo * dh - p.C
        )
        res = float(np.max(np.abs(f)))
        history.append(res)
        if res <= tol:
            return SymmetricSolution(
                "radial", theta, h,
                {"alpha_hat_coeff": -p.C / 2.0,
                 "pi_theta_part": 2.0 * me * h + mo * dh},
                extras={"newton_residuals": history},
            )
        jac = (
            np.diag(2.0 * rho * h + 4.0 * me)
            + d @ (me[:, None] * d) - 2.0 * d * mo
            + 2.0 * mo[:, None] * d
        )
        h = h - np.linalg.solve(jac, f)
    raise RuntimeError(
        f"Newton failed: residual {history[-1]:.3e} after {max_iter} iterations"
    )


def _fd_deriv_matrix(n):
    """Centered periodic first-difference matrix on [0, 2 pi)."""
    h = 2.0 * np.pi / n
    d = np.zeros((n, n))
    idx = np.arange(n)
    d[idx, (idx + 1) % n] = 1.0 / (2.0 * h)
    d[idx, (idx - 1) % n] = -1.0 / (2.0 * h)
    return d


_RADIAL_ITERATIONS = 60  # iterations per level (per continuation stage in the rescue)


def radial_nonexistence_demo(C=1.0, levels=(64, 128, 256, 512),
                             mu_o_values=(1.0, 2.0), mu_e=0.0):
    """Refinement study of the radial equation with jump odd viscosity.

    With mu_e = 0 the profile equation rho h^2 - 2 d(mu_o h) + 2 mu_o dh
    = C and piecewise-constant mu_o has no H1 solution: the jump of
    mu_o h acts as a point source that a Sobolev profile cannot carry.  A
    damped Gauss-Newton least-squares iteration on a periodic
    finite-difference collocation is attempted per refinement level; the
    discrete compensation of the point source makes the H1 seminorm of
    the iterate blow up like 1/h under refinement (or the residual stays
    bounded away from zero when the iteration cannot compensate at all).

    Passing mu_e > 0 restores the shear-viscous term, in which case the
    problem is well posed again: a conservative finite-volume Newton
    iteration (with continuation down in the shear viscosity, since the
    solution branch develops large kinks at the coefficient jumps as
    mu_e shrinks) converges to a genuine discrete solution -- the
    contrast run supporting the regularizing role of shear viscosity.

    The density is the pullback of mu_o under nu_o(rho) = rho, so rho = mu_o.
    """
    lo, hi = mu_o_values
    if not all(math.isfinite(v) and v > 0.0 for v in (lo, hi)):
        raise ValueError("mu_o_values must be finite and positive: they are "
                         "also the density (rho = mu_o)")
    report = []
    for n in levels:
        theta = 2.0 * np.pi * np.arange(n) / n
        mo = np.where(theta < np.pi, lo, hi)
        rho = mo
        if mu_e > 0.0:
            report.append(_radial_jump_rescue(C, n, mo, rho, mu_e))
            continue
        d = _fd_deriv_matrix(n)
        pin = np.sqrt(max(C, 1e-3) / float(np.mean(rho)))
        h = np.full(n, pin)
        # Pin the value at the interface theta = pi: a nonzero trace
        # there is what nonzero boundary data enforces, and it is
        # exactly the branch in which the jump of mu_o h produces a
        # point source.
        free = np.arange(n) != n // 2
        best = np.inf
        best_h = h
        for it in range(_RADIAL_ITERATIONS):
            g = (
                rho * h * h
                - 2.0 * (d @ (mo * h)) + 2.0 * mo * (d @ h) - C
            )
            res = float(np.linalg.norm(g) / np.sqrt(n))
            if res < best:
                best, best_h = res, h.copy()
            if res <= 1e-12:
                break
            jac = (
                np.diag(2.0 * rho * h)
                - 2.0 * d * mo + 2.0 * mo[:, None] * d
            )
            step, *_ = np.linalg.lstsq(jac[:, free], -g, rcond=None)
            h = h.copy()
            h[free] += (0.5 if it < 10 else 1.0) * step
            if not np.all(np.isfinite(h)):
                break
        dh = d @ best_h
        h1_semi = float(np.linalg.norm(dh) * np.sqrt(2.0 * np.pi / n))
        report.append({"n": n, "residual": best, "h1_seminorm": h1_semi})
    return report


def _radial_jump_rescue(C, n, mo_center, rho, mu_e_target):
    """Newton solve of the full radial profile equation with jump odd
    viscosity and positive shear viscosity.

    Conservative finite volumes with the coefficient jumps on cell
    faces, an analytic Jacobian, a backtracking line search, and
    continuation from a diffusion-dominated shear viscosity down to the
    target (the branch develops O(h/mu_e) derivative kinks at the jumps
    and is unreachable by Newton from the constant state directly).
    """
    dth = 2.0 * np.pi / n
    theta = dth * np.arange(n)
    # For piecewise-constant data the face value is the owning side's.
    mo_face = np.where(theta + dth / 2.0 < np.pi, mo_center[0], mo_center[-1])

    def linear(h, mu_e):
        """The operator without its quadratic term and C, applied along
        the last axis of h."""
        hp = np.roll(h, -1, axis=-1)
        hm = np.roll(h, 1, axis=-1)
        flux = mu_e * (hp - h) / dth - mo_face * (h + hp)
        div_flux = (flux - np.roll(flux, 1, axis=-1)) / dth
        return div_flux + 4.0 * mu_e * h + 2.0 * mo_center * (hp - hm) / (2.0 * dth)

    def residual(h, mu_e):
        return rho * h * h + linear(h, mu_e) - C

    ladder = [4.0, 2.0, 1.0, 0.7, 0.5, 0.35, 0.25, 0.18, 0.14, 0.12, 0.11]
    ladder = [m for m in ladder if m > mu_e_target] + [mu_e_target]
    h = np.full(n, 0.2 * np.sign(C) if C != 0.0 else 0.0)
    res = np.inf
    for mu_e in ladder:
        lin = linear(np.eye(n), mu_e).T     # its row k is the image of e_k
        for _ in range(_RADIAL_ITERATIONS):
            g = residual(h, mu_e)
            res = float(np.linalg.norm(g) / np.sqrt(n))
            if res <= 1e-12:
                break
            jac = lin + np.diag(2.0 * rho * h)
            step = np.linalg.solve(jac, -g)
            lam = 1.0
            gnorm = np.linalg.norm(g)
            for _ in range(40):
                if np.linalg.norm(residual(h + lam * step, mu_e)) < gnorm:
                    break
                lam *= 0.5
            h = h + lam * step
    dh = (np.roll(h, -1) - np.roll(h, 1)) / (2.0 * dth)
    h1_semi = float(np.linalg.norm(dh) * np.sqrt(dth))
    return {"n": n, "residual": res, "h1_seminorm": h1_semi}


# ---------------------------------------------------------- verification

def verify_full_momentum(sol: SymmetricSolution, problem) -> float:
    """Substitute profile and reconstructed pressure into the unreduced
    stationary momentum equations; returns the interior L-infinity
    residual on a 2D verification grid.

    All profile derivatives are recomputed by centered differences (or
    spectrally in theta), so the residual measures the solution itself,
    not the stored slopes.
    """
    if sol.kind == "parallel":
        return _verify_parallel(sol, problem)
    if sol.kind == "concentric":
        return _verify_concentric(sol, problem)
    if sol.kind == "radial":
        return _verify_radial(sol, problem)
    raise ValueError(f"unknown solution kind {sol.kind!r}")


def _verify_parallel(sol: SymmetricSolution, p: ParallelProblem) -> float:
    x = sol.nodes
    h = x[1] - x[0]
    rho, me, mo = _coefficients(p, x)
    up = np.gradient(sol.profile, h)
    # component 1: -d2(mu_e d2 u1) + d1 pi, with d1 pi = C
    r1 = -np.gradient(me * up, h) + sol.pressure["C"]
    # component 2: -d2(mu_o d2 u1) + d2 pi, with pi = C x1 + beta(x2)
    r2 = -np.gradient(mo * up, h) + np.gradient(sol.pressure["beta"], h)
    interior = slice(2, -2)
    return float(max(np.max(np.abs(r1[interior])), np.max(np.abs(r2[interior]))))


def _verify_concentric(sol: SymmetricSolution, p: ConcentricProblem) -> float:
    r = sol.nodes
    h = r[1] - r[0]
    g = sol.profile
    rho, me, mo = _coefficients(p, r)
    gp = np.gradient(g, h)
    # e_theta: -d_r(r^3 mu_e g') / r^2 - (1/r) d_theta pi, d_theta pi = -C
    rth = -np.gradient(r**3 * me * gp, h) / r**2 + p.C / r
    # e_r: -r rho g^2 - d_r(mu_o r^3 g') / r^2 + beta'(r)
    rr = -r * rho * g**2 - np.gradient(mo * r**3 * gp, h) / r**2 \
        + sol.pressure["beta_prime"]
    interior = slice(2, -2)
    return float(max(np.max(np.abs(rth[interior])), np.max(np.abs(rr[interior]))))


def _verify_radial(sol: SymmetricSolution, p: RadialProblem) -> float:
    theta = sol.nodes
    n = len(theta)
    d = _spectral_deriv_matrix(n)
    hprof = sol.profile
    rho, me, mo = _coefficients(p, theta)
    dh = d @ hprof
    # pi = (2 mu_e h + mu_o dh) / r^2 + alpha_hat(r), alpha_hat = -C/(2 r^2)
    pi_theta = 2.0 * me * hprof + mo * dh
    worst = 0.0
    for r in (1.0, 1.5, 2.0):
        # e_r: -rho h^2/r^3 - d(mu_e dh)/r^3 + 2 d(mu_o h)/r^3 + d_r pi
        er = (
            -rho * hprof**2 - d @ (me * dh) + 2.0 * (d @ (mo * hprof))
            - 2.0 * pi_theta + p.C
        ) / r**3
        # e_theta: 2 d(mu_e h)/r^3 + d(mu_o dh)/r^3 - (1/r) d_theta pi
        eth = (2.0 * (d @ (me * hprof)) + d @ (mo * dh) - d @ pi_theta) / r**3
        worst = max(worst, float(np.max(np.abs(er))), float(np.max(np.abs(eth))))
    return worst
