"""Time integration of the evolutionary system on the periodic torus.

Scheme: semi-Lagrangian density transport (bound-preserving), explicit
RK2 on the velocity with the variable-density pressure projection applied
to each stage tendency, 2/3-rule dealiasing on all products and a
Fourier-Galerkin mode cutoff.  Projecting per stage (rather than once per
step) keeps the discrete trajectory exactly independent of a constant
odd-viscosity coefficient: each stage's odd tendency is a gradient over
the same density field the projection uses, so it is removed completely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fields import (
    Grid2D,
    NonFiniteError,
    ScalarField,
    VectorField,
    _div_hat,
    _grad_hat,
    _irfft,
    _rfft,
    _rfft_inner,
    _rfft_mode_mask,
    _rfft_wavenumbers,
    _velocity_gradient,
    divergence,
    norms,
)
from .semilag import advect_scalar
from .viscosity import DensityBounds, ViscosityLaw, strain_odd, strain_sym

ForceFn = Callable[[float], Optional[VectorField]]


@dataclass(frozen=True)
class EvolveConfig:
    grid: Grid2D
    dt: float
    t_end: float
    law: ViscosityLaw
    bounds: DensityBounds
    mode_cutoff: int = 0  # 0: use the 2/3 dealiasing cutoff
    cfl_limit: float = 0.5
    cg_tol: float = 1e-10
    cg_max_iter: int = 500

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if not 0 < self.cfl_limit <= 1:
            raise ValueError("cfl_limit must lie in (0, 1]")
        limit = min(self.grid.n1, self.grid.n2) // 3
        if self.mode_cutoff > limit:
            raise ValueError(f"mode_cutoff must be <= {limit} for dealiasing")

    @property
    def cutoff(self):
        return self.mode_cutoff if self.mode_cutoff > 0 else min(self.grid.n1, self.grid.n2) // 3


@dataclass(frozen=True)
class InitialData:
    rho0: ScalarField
    u0: VectorField
    force: Optional[ForceFn] = None

    def validate(self, bounds: DensityBounds):
        if not bounds.contains(self.rho0.values):
            raise ValueError("initial density leaves the admissible bounds")
        if norms(divergence(self.u0))["linf"] > 1e-10:
            raise ValueError("initial velocity is not divergence-free")


@dataclass(frozen=True)
class SimulationState:
    t: float
    rho: ScalarField
    u: VectorField
    pressure: ScalarField


@dataclass
class EnergyLedger:
    """Discrete energy bookkeeping for the energy inequality.

    kinetic[k] = int rho |u|^2 dx at times[k]; dissipation/work are the
    cumulative trapezoid integrals of int mu_e |sym strain|^2 and
    2 int rho f.u.  The odd viscosity never enters the ledger.
    """

    times: list = field(default_factory=list)
    kinetic: list = field(default_factory=list)
    dissipation: list = field(default_factory=list)
    work: list = field(default_factory=list)

    def balance_defect(self, k=-1):
        return (
            self.kinetic[k]
            + self.dissipation[k]
            - self.kinetic[0]
            - self.work[k]
        )


def _truncate(grid: Grid2D, vals, cutoff):
    """Galerkin mode cutoff of a plane or a stack of planes."""
    return _irfft(grid, _rfft(vals) * _rfft_mode_mask(grid, cutoff))


def _advective_rhs(grid, law, rho, u: VectorField, f, cutoff):
    """Velocity tendency before pressure: -(u.grad)u + div(sigma)/rho + f,
    as a (2, n1, n2) stack.

    Single fused spectral pass: velocity derivatives are computed once and
    shared by the advection term and both strain tensors; the 2/3 mask is
    applied inside the same transform as each product's derivative.  The
    derivative stack is freed before the five products are transformed,
    which bounds the peak memory.
    """
    mask = _rfft_mode_mask(grid, cutoff)
    u1, u2 = u.comp1, u.comp2
    d1u1, d2u1, d1u2, d2u2 = _velocity_gradient(u)
    me = law.mu_e(rho)
    mo = law.mu_o(rho)
    off_sym = d2u1 + d1u2
    off_odd = d1u1 - d2u2
    prod = np.empty((5, grid.n1, grid.n2))
    # advection term, then the viscous stress entries s11, s12, s22
    prod[0] = u1 * d1u1 + u2 * d2u1
    prod[1] = u1 * d1u2 + u2 * d2u2
    prod[2] = me * (2.0 * d1u1) + mo * (-off_sym)
    prod[3] = me * off_sym + mo * off_odd
    prod[4] = me * (2.0 * d2u2) + mo * off_sym
    del d1u1, d2u1, d1u2, d2u2, off_sym, off_odd, me, mo
    phat = _rfft(prod)
    del prod
    phat *= mask
    # div of the stress rows (s11, s12) and (s12, s22)
    phat[2:4] = _div_hat(grid, phat[[[2, 3], [3, 4]]])
    adv1, adv2, v1, v2 = _irfft(grid, phat[:4])
    g = np.stack((-adv1 + v1 / rho, -adv2 + v2 / rho))
    if f is not None:
        g[0] += f.comp1
        g[1] += f.comp2
    return g


class ProjectionError(RuntimeError):
    pass


class BlowUpError(RuntimeError):
    """The state of a run turned non-finite; the message names the step."""


def solve_pressure(grid: Grid2D, rho, source, tol=1e-10, max_iter=500, p0=None):
    """Solve div((1/rho) grad p) = source by preconditioned CG on rfft2
    coefficients: `source`, the warm start `p0` and the returned mean-zero
    `p` are all rfft2 coefficient arrays.

    The operator is symmetric negative definite on mean-zero fields; the
    preconditioner is the constant-coefficient spectral inverse with the
    mean inverse-density coefficient, a diagonal on the coefficients.
    Inner products are the physical ones by Parseval.
    """
    inv_rho = 1.0 / rho
    coeff = float(np.mean(inv_rho))
    k1, k2 = _rfft_wavenumbers(grid)
    # the preconditioner must use the operator's own (Nyquist-zeroed)
    # symbol, or the near-null Nyquist-line modes stall the iteration;
    # the four modes where that symbol vanishes are dropped
    ksq = k1 * k1 + k2 * k2
    null = ksq == 0.0
    inv_m = np.where(null, 0.0, 1.0 / (coeff * np.where(null, 1.0, ksq)))

    def apply_a(phat):
        # -div((1/rho) grad p): symmetric positive definite on mean zero
        g = _irfft(grid, _grad_hat(grid, phat))
        g *= inv_rho
        return -_div_hat(grid, _rfft(g))

    def norm(a):
        return np.sqrt(_rfft_inner(grid, a, a))

    b = -source
    b[null] = 0.0
    bnorm = norm(b)
    if not np.isfinite(bnorm):
        raise NonFiniteError("pressure source contains non-finite values")
    if bnorm == 0.0:
        return np.zeros_like(b)
    if p0 is None:
        p = np.zeros_like(b)
        r = b.copy()
    else:
        p = p0.copy()
        p[null] = 0.0
        r = b - apply_a(p)
        if norm(r) <= tol * bnorm:
            return p
    z = inv_m * r
    d = z.copy()
    rz = _rfft_inner(grid, r, z)
    for _ in range(max_iter):
        ad = apply_a(d)
        alpha = rz / _rfft_inner(grid, d, ad)
        p += alpha * d
        r -= alpha * ad
        if norm(r) <= tol * bnorm:
            return p
        z = inv_m * r
        rz_new = _rfft_inner(grid, r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    raise ProjectionError(
        f"pressure CG failed to reach {tol:g} in {max_iter} iterations"
    )


def _project_tendency(grid, rho, g, tol, max_iter, p0=None):
    """Remove the (1/rho) grad q part of a (2, n1, n2) tendency so it is
    divergence-free.  Returns the projected stack and q's coefficients."""
    qhat = solve_pressure(grid, rho, _div_hat(grid, _rfft(g)), tol, max_iter, p0=p0)
    return g - _irfft(grid, _grad_hat(grid, qhat)) / rho, qhat


def recover_pressure(grid: Grid2D, law: ViscosityLaw, rho, u: VectorField, f,
                     cutoff, tol=1e-10, max_iter=500, p0=None) -> np.ndarray:
    """rfft2 coefficients of the mean-zero pressure consistent with the
    instantaneous state."""
    g = _advective_rhs(grid, law, rho, u, f, cutoff)
    return solve_pressure(grid, rho, _div_hat(grid, _rfft(g)), tol, max_iter, p0=p0)


def stable_dt(config: EvolveConfig, u: VectorField) -> float:
    """Adaptive step from the advective CFL and viscous constraints."""
    h = min(config.grid.h1, config.grid.h2)
    dt = min(config.dt, h * h / (8.0 * config.law.mu_upper))
    umax = max(np.max(np.abs(u.comp1)), np.max(np.abs(u.comp2)))
    if umax > 0:
        dt = min(dt, config.cfl_limit * h / umax)
    return dt


def step(state: SimulationState, config: EvolveConfig,
         force: Optional[ForceFn] = None, dt: Optional[float] = None,
         with_pressure: bool = True, warm: Optional[dict] = None) -> SimulationState:
    """One time step: density transport, projected RK2 on the velocity,
    Galerkin mode truncation, diagnostic pressure recovery.

    `warm` is an optional mutable dict reused across steps to warm-start
    the three CG solves by linear extrapolation of the previous solutions,
    all held as rfft2 coefficients.
    """
    grid = config.grid
    cutoff = config.cutoff
    if warm is None:
        warm = {}

    def guess(key):
        cur, old = warm.get(key), warm.get(key + "_old")
        if cur is None:
            return None
        return cur if old is None else 2.0 * cur - old

    if dt is None:
        dt = stable_dt(config, state.u)
    f_now = force(state.t) if force else None
    f_next = force(state.t + dt) if force else None

    rho_new = advect_scalar(state.rho, state.u, dt)
    rho0 = state.rho.values
    rho1 = rho_new.values
    u0 = np.stack((state.u.comp1, state.u.comp2))

    g = _advective_rhs(grid, config.law, rho0, state.u, f_now, cutoff)
    k1, q1 = _project_tendency(
        grid, rho0, g, config.cg_tol, config.cg_max_iter, p0=guess("q1")
    )
    u_mid = VectorField(grid, *_truncate(grid, u0 + dt * k1, cutoff))
    g = _advective_rhs(grid, config.law, rho1, u_mid, f_next, cutoff)
    k2, q2 = _project_tendency(
        grid, rho1, g, config.cg_tol, config.cg_max_iter, p0=guess("q2")
    )
    u_new = VectorField(grid, *_truncate(grid, u0 + 0.5 * dt * (k1 + k2), cutoff))
    warm["q1_old"], warm["q2_old"] = warm.get("q1"), warm.get("q2")
    warm["q1"], warm["q2"] = q1, q2
    if with_pressure:
        phat = recover_pressure(
            grid, config.law, rho1, u_new, f_next, cutoff,
            config.cg_tol, config.cg_max_iter, p0=guess("pr"),
        )
        warm["pr_old"] = warm.get("pr")
        warm["pr"] = phat
        p = _irfft(grid, phat)
    else:
        p = np.zeros((grid.n1, grid.n2))
    return SimulationState(state.t + dt, rho_new, u_new, ScalarField(grid, p))


def _kinetic(grid, rho, u):
    return float(np.sum(rho * (u.comp1**2 + u.comp2**2)) * grid.cell_area)


def _dissipation_rate(grid, law, rho, u):
    me = law.mu_e(rho)
    s = strain_sym(u)
    mag = s.t11**2 + s.t12**2 + s.t21**2 + s.t22**2
    return float(np.sum(me * mag) * grid.cell_area)


def _work_rate(grid, rho, u, f):
    if f is None:
        return 0.0
    return 2.0 * float(np.sum(rho * (u.comp1 * f.comp1 + u.comp2 * f.comp2)) * grid.cell_area)


def run(config: EvolveConfig, data: InitialData, store_every: int = 0):
    """Integrate to t_end.  Returns (states, ledger).

    store_every=k keeps every k-th state (k=0: first and last only); the
    ledger is appended at every step regardless.  A state that turns
    non-finite (an overflow) raises BlowUpError naming the step and the
    time of the last finite state; step 0 is the set-up before the loop.
    """
    k, state = 0, None
    try:
        data.validate(config.bounds)
        grid = config.grid
        force = data.force
        f0 = force(0.0) if force else None
        state = SimulationState(
            0.0, data.rho0, data.u0,
            ScalarField(grid, _irfft(grid, recover_pressure(
                grid, config.law, data.rho0.values, data.u0, f0, config.cutoff,
                config.cg_tol, config.cg_max_iter))),
        )
        ledger = EnergyLedger()
        ledger.times.append(0.0)
        ledger.kinetic.append(_kinetic(grid, state.rho.values, state.u))
        ledger.dissipation.append(0.0)
        ledger.work.append(0.0)
        states = [state]
        d_prev = _dissipation_rate(grid, config.law, state.rho.values, state.u)
        w_prev = _work_rate(grid, state.rho.values, state.u, f0)
        warm = {}
        while state.t < config.t_end - 1e-14:
            dt = min(stable_dt(config, state.u), config.t_end - state.t)
            k += 1
            is_output = (store_every and k % store_every == 0) or (
                state.t + dt >= config.t_end - 1e-14
            )
            state = step(state, config, force, dt=dt, with_pressure=is_output, warm=warm)
            f_t = force(state.t) if force else None
            d_now = _dissipation_rate(grid, config.law, state.rho.values, state.u)
            w_now = _work_rate(grid, state.rho.values, state.u, f_t)
            ledger.times.append(state.t)
            ledger.kinetic.append(_kinetic(grid, state.rho.values, state.u))
            ledger.dissipation.append(ledger.dissipation[-1] + 0.5 * dt * (d_prev + d_now))
            ledger.work.append(ledger.work[-1] + 0.5 * dt * (w_prev + w_now))
            d_prev, w_prev = d_now, w_now
            if is_output:
                states.append(state)
    except NonFiniteError as e:
        t = 0.0 if state is None else state.t
        raise BlowUpError(f"state turned non-finite in step {k} (t = {t:.6g}): {e}") from e
    return states, ledger


@dataclass(frozen=True)
class TestField:
    """Separable space-time test field a(t) * Phi(x), a compactly supported."""

    phi: VectorField
    a: Callable[[float], float]
    a_dot: Callable[[float], float]


def bump(t0: float, t1: float):
    """C^1 bump supported on (t0, t1), normalized to peak 1."""
    scale = ((t1 - t0) / 2.0) ** 4

    def a(t):
        return ((t - t0) ** 2 * (t1 - t) ** 2 / scale) if t0 < t < t1 else 0.0

    def a_dot(t):
        if not t0 < t < t1:
            return 0.0
        return (2 * (t - t0) * (t1 - t) ** 2 - 2 * (t - t0) ** 2 * (t1 - t)) / scale

    return a, a_dot


def residual_weak_momentum(times, states, config: EvolveConfig,
                           force: Optional[ForceFn], test_fields) -> float:
    """Space-time weak-form residual of the momentum equation.

    Trapezoid quadrature in time over the stored trajectory against
    separable divergence-free test fields supported strictly inside the
    simulated window.
    """
    grid = config.grid
    law = config.law
    worst = 0.0
    for tf in test_fields:
        if norms(divergence(tf.phi))["linf"] > 1e-10:
            raise ValueError("test field is not divergence-free")
        phi = tf.phi
        sphi = strain_sym(phi)
        g11, g12, g21, g22 = _velocity_gradient(phi)
        vals = []
        for t, st in zip(times, states):
            rho = st.rho.values
            u1, u2 = st.u.comp1, st.u.comp2
            a = tf.a(t)
            adot = tf.a_dot(t)
            integrand = -(rho * (u1 * phi.comp1 + u2 * phi.comp2)) * adot
            if a != 0.0:
                uu = -(
                    rho * u1 * u1 * g11
                    + rho * u1 * u2 * g12
                    + rho * u2 * u1 * g21
                    + rho * u2 * u2 * g22
                )
                me = law.mu_e(rho)
                mo = law.mu_o(rho)
                s = strain_sym(st.u)
                o = strain_odd(st.u)
                visc = 0.5 * (
                    (me * s.t11 + mo * o.t11) * sphi.t11
                    + (me * s.t12 + mo * o.t12) * sphi.t12
                    + (me * s.t21 + mo * o.t21) * sphi.t21
                    + (me * s.t22 + mo * o.t22) * sphi.t22
                )
                integrand = integrand + a * (uu + visc)
                f = force(t) if force else None
                if f is not None:
                    integrand = integrand - a * rho * (
                        f.comp1 * phi.comp1 + f.comp2 * phi.comp2
                    )
            vals.append(np.sum(integrand) * grid.cell_area)
        res = abs(np.trapezoid(vals, times))
        worst = max(worst, res)
    return worst


def odd_limit_sweep(config: EvolveConfig, data: InitialData, eps_list, c0: float):
    """Velocity distance at t_end between runs with nu_o = c0 + eps*sin(rho)
    and the constant-law reference, per eps."""

    def law_for(eps):
        return ViscosityLaw(
            config.law.nu_e,
            lambda r, e=eps: c0 + e * np.sin(np.asarray(r, dtype=float)),
            config.law.mu_star,
            config.law.mu_upper,
            config.law.bounds,
        )

    def final_u(law):
        cfg = EvolveConfig(
            config.grid, config.dt, config.t_end, law, config.bounds,
            config.mode_cutoff, config.cfl_limit, config.cg_tol, config.cg_max_iter,
        )
        states, _ = run(cfg, data)
        return states[-1].u

    u_ref = final_u(law_for(0.0))
    rows = []
    for eps in eps_list:
        u_eps = final_u(law_for(eps))
        diff = VectorField(
            config.grid, u_eps.comp1 - u_ref.comp1, u_eps.comp2 - u_ref.comp2
        )
        rows.append((float(eps), norms(diff)["l2"]))
    return rows
