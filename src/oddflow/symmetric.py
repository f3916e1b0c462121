"""Symmetry-reduced stationary flows: parallel, concentric and radial.

Each symmetry class reduces the stationary momentum system to an ODE for
a scalar profile; the removed components are balanced by an explicitly
reconstructed pressure.  The module provides the three profile solvers,
a check that substitutes profile plus pressure back into both unreduced
momentum components on the solution's own 1-D nodes, and the numerical
demonstration that the radial problem with zero shear viscosity and a
jump in the odd viscosity admits no H1 profile.  Each radial equation is
written once, as its linear part along the last axis; Newton's matrix is
that part applied to the identity plus the quadratic term's diagonal.
The profile integrals use an adaptive Gauss-Lobatto rule in numpy, so
the module needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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

    def __post_init__(self):
        # a finite input can still overflow, and no run may end on it
        for name, value in (("nodes", self.nodes), ("profile", self.profile),
                            *self.pressure.items()):
            if not np.all(np.isfinite(value)):
                raise RuntimeError(f"{self.kind} solution: {name} is not finite")


def _coefficients(p, nodes):
    """Density and the even and odd viscosities of `p` at `nodes`; raises
    ValueError where the density leaves the law's bounds."""
    rho = np.asarray(p.rho_profile(nodes), dtype=float)
    if not p.law.bounds.contains(rho):
        raise ValueError("the density profile leaves the law's bounds")
    return rho, p.law.mu_e(rho), p.law.mu_o(rho)


# -------------------------------------------------------------- parallel

# the 10-point Gauss-Lobatto rule on [-1, 1]: the ends and the roots of P_9'
_P9 = np.polynomial.legendre.Legendre.basis(9)
_RULE_X = np.concatenate(([-1.0], _P9.deriv().roots(), [1.0]))
_RULE_W = 2.0 / (90.0 * _P9(_RULE_X) ** 2)
_QUAD_TOL = 1e-15          # per piece, relative to the sum of |integral| over the intervals
_QUAD_MAX_SPLITS = 2**15   # bisections before a quadrature fails


def _cumquad(fn, nodes):
    """Integral of fn from nodes[0] to every node, by adaptive bisection
    (Piessens et al., QUADPACK, 1983) of all node intervals at once: a piece
    whose rule and sum over its halves differ by more than _QUAD_TOL is
    split.  The rule holds the piece's ends, so a jump next to one moves
    that difference too.  fn gets each round's points as one 2-D array.
    Raises RuntimeError after _QUAD_MAX_SPLITS bisections."""
    def rule(lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        return (half * fn(0.5 * (lo + hi)[:, None] + half * _RULE_X)) @ _RULE_W

    lo, hi = nodes[:-1], nodes[1:]
    owner = np.arange(1, len(nodes))     # the node that ends a piece's interval
    whole = rule(lo, hi)
    bound = _QUAD_TOL * np.sum(np.abs(whole))
    parts, splits = np.zeros(len(nodes)), 0
    while len(lo):
        mid = 0.5 * (lo + hi)
        halves = rule(np.concatenate((lo, mid)), np.concatenate((mid, hi))).reshape(2, -1)
        fine = halves.sum(axis=0)
        todo = ~(np.abs(fine - whole) <= bound)      # a nan piece stays unresolved
        np.add.at(parts, owner[~todo], fine[~todo])
        splits += np.count_nonzero(todo)
        if splits > _QUAD_MAX_SPLITS:
            raise RuntimeError(f"quadrature unresolved after {_QUAD_MAX_SPLITS} bisections")
        lo, hi = np.concatenate((lo[todo], mid[todo])), np.concatenate((mid[todo], hi[todo]))
        owner, whole = np.tile(owner[todo], 2), halves[:, todo].ravel()
    return np.cumsum(parts)


def solve_parallel(p: ParallelProblem) -> SymmetricSolution:
    """Integrate mu_e u1' = C x2 + C1 as u1 = u_a + C X + C1 I, with I and
    X the integrals of 1/mu_e and x2/mu_e from a, and C1 fixed by u_b.

    Strict mode additionally reports how far mu_o u1' is from constant
    (the incompatibility of the second reduced equation); the
    pressure_absorbed mode balances that term with beta(x2) = mu_o u1'.
    """
    x = np.linspace(p.a, p.b, p.n)
    _, me, mo = _coefficients(p, x)
    inv = _cumquad(lambda s: 1.0 / _coefficients(p, s)[1], x)
    xinv = _cumquad(lambda s: s / _coefficients(p, s)[1], x)
    c1 = (p.u_b - p.u_a - p.C * xinv[-1]) / inv[-1]
    u1 = p.u_a + p.C * xinv + c1 * inv
    beta = mo * (p.C * x + c1) / me    # d2 pi = beta'(x2)
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
    rho, me, mo = _coefficients(p, r)

    def gprime(s, me):
        return (p.C * s * s / 2.0 + p.C1) / (s**3 * me)

    g = p.g_in + _cumquad(lambda s: gprime(s, _coefficients(p, s)[1]), r)
    gp = gprime(r, me)

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

def _d_theta(f):
    """Fourier collocation derivative of 2 pi periodic samples along the
    last axis, the unpaired Nyquist mode dropped."""
    n = f.shape[-1]
    k = np.fft.rfftfreq(n, d=1.0 / n)
    k[-1] = 0.0
    return np.fft.irfft(1j * k * np.fft.rfft(f, axis=-1), n=n, axis=-1)


def _d_centred(f):
    """Centred periodic difference on [0, 2 pi) along the last axis."""
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (4.0 * np.pi / f.shape[-1])


def solve_radial(p: RadialProblem, tol=1e-10, max_iter=50) -> SymmetricSolution:
    """Newton iteration on the Fourier-collocated radial profile equation.

    Starts from the positive root of the constant-coefficient reduction
    rho_bar h^2 + 4 mu_e_bar h = C and records the residual history (the
    last steps contract quadratically).  Which root is reached depends on
    this starting point; the solver documents the branch via extras.
    """
    n = p.collocation_n
    theta = 2.0 * np.pi * np.arange(n) / n
    rho, me, mo = _coefficients(p, theta)

    def linear(h):
        """The operator without rho h^2 and C, along the last axis of h."""
        dh = _d_theta(h)
        return _d_theta(me * dh) - 2.0 * _d_theta(mo * h) + 4.0 * me * h + 2.0 * mo * dh

    rho_bar = float(np.mean(rho))
    me_bar = float(np.mean(me))
    if p.C == 0.0:
        h = np.zeros(n)
    else:
        disc = 4.0 * me_bar**2 + rho_bar * p.C
        if disc < 0:
            raise ValueError("no real constant-coefficient root to start from")
        h = np.full(n, (-2.0 * me_bar + np.sqrt(disc)) / rho_bar)
    history, lin = [], None
    for _ in range(max_iter):
        f = rho * h * h + linear(h) - p.C
        res = float(np.max(np.abs(f)))
        history.append(res)
        if res <= tol:
            return SymmetricSolution(
                "radial", theta, h,
                {"alpha_hat_coeff": -p.C / 2.0,
                 "pi_theta_part": 2.0 * me * h + mo * _d_theta(h)},
                extras={"newton_residuals": history},
            )
        if lin is None:   # the zero start of C = 0 needs no n x n matrix
            lin = linear(np.eye(n)).T     # its row k is the image of e_k
        h = h - np.linalg.solve(lin + np.diag(2.0 * rho * h), f)
    raise RuntimeError(
        f"Newton failed: residual {history[-1]:.3e} after {max_iter} iterations"
    )


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
    if not math.isfinite(C):
        raise ValueError("C must be finite")
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

        def linear(h):
            return -2.0 * _d_centred(mo * h) + 2.0 * mo * _d_centred(h)

        lin = linear(np.eye(n)).T
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
            g = rho * h * h + linear(h) - C
            res = float(np.linalg.norm(g) / np.sqrt(n))
            if res < best:
                best, best_h = res, h.copy()
            if res <= 1e-12:
                break
            jac = lin + np.diag(2.0 * rho * h)
            step, *_ = np.linalg.lstsq(jac[:, free], -g, rcond=None)
            h = h.copy()
            h[free] += (0.5 if it < 10 else 1.0) * step
            if not np.all(np.isfinite(h)):
                break
        h1_semi = float(np.linalg.norm(_d_centred(best_h)) * np.sqrt(2.0 * np.pi / n))
        report.append({"n": n, "residual": best, "h1_seminorm": h1_semi})
    return report


def _radial_jump_rescue(C, n, mo_center, rho, mu_e_target):
    """Newton solve of the full radial profile equation with jump odd
    viscosity and positive shear viscosity.

    Conservative finite volumes with the coefficient jumps on cell
    faces, the Jacobian taken from the operator itself, a backtracking
    line search, and continuation from a diffusion-dominated shear
    viscosity down to the target (the branch develops O(h/mu_e)
    derivative kinks at the jumps and is unreachable by Newton from the
    constant state directly).
    """
    dth = 2.0 * np.pi / n
    theta = dth * np.arange(n)
    # For piecewise-constant data the face value is the owning side's.
    mo_face = np.where(theta + dth / 2.0 < np.pi, mo_center[0], mo_center[-1])

    def linear(h, mu_e):
        """The operator without its quadratic term and C, applied along
        the last axis of h."""
        hp = np.roll(h, -1, axis=-1)
        flux = mu_e * (hp - h) / dth - mo_face * (h + hp)
        div_flux = (flux - np.roll(flux, 1, axis=-1)) / dth
        return div_flux + 4.0 * mu_e * h + 2.0 * mo_center * _d_centred(h)

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
    h1_semi = float(np.linalg.norm(_d_centred(h)) * np.sqrt(dth))
    return {"n": n, "residual": res, "h1_seminorm": h1_semi}


# ---------------------------------------------------------- verification

def verify_full_momentum(sol: SymmetricSolution, problem) -> float:
    """Substitute profile and reconstructed pressure into the two
    unreduced stationary momentum components; returns their interior
    L-infinity residual on the solution's own nodes, at the radii 1, 1.5
    and 2 for radial flows.

    Profile derivatives are recomputed by centered differences (or
    spectrally in theta), not read from stored slopes.  The parallel
    check differences the profile twice, so it reads rounding near
    1e-12.  The radial e_r part is minus the solver's residual and the
    e_theta part vanishes once pi_theta = 2 mu_e h + mu_o h', so that
    check cannot catch an error in the theta derivative it shares.
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
    h = sol.profile
    rho, me, mo = _coefficients(p, sol.nodes)
    dh = _d_theta(h)
    # pi = pi_theta / r^2 + alpha_hat(r), alpha_hat = -C/(2 r^2)
    pi_theta = sol.pressure["pi_theta_part"]
    # r^3 e_r: -rho h^2 - d(mu_e dh) + 2 d(mu_o h) + r^3 d_r pi
    er = -rho * h**2 - _d_theta(me * dh) + 2.0 * _d_theta(mo * h) - 2.0 * pi_theta + p.C
    # r^3 e_theta: 2 d(mu_e h) + d(mu_o dh) - r^2 d_theta pi
    eth = 2.0 * _d_theta(me * h) + _d_theta(mo * dh) - _d_theta(pi_theta)
    return max(float(np.max(np.abs(e))) / r**3 for e in (er, eth) for r in (1.0, 1.5, 2.0))
