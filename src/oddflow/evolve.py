"""Time integration of the evolutionary system on the periodic torus.

Scheme: semi-Lagrangian density transport (bound-preserving), ETDRK2
(Cox & Matthews 2002) on the velocity with the variable-density pressure
projection applied to each stage tendency, 2/3-rule dealiasing on all
products and a Fourier-Galerkin mode cutoff.  The shear viscosity is
split as in Guermond & Salgado (2009): a constant-coefficient part
nu_s Lap u, with nu_s the largest mu_e(rho)/rho over the step's two
densities, is integrated exactly as a diagonal on rfft2 coefficients,
and the rest of the tendency is explicit.  So the viscous terms set no
step limit: the step is config.dt or the advective CFL step.  At constant
coefficients the explicit remainder of the viscous term vanishes, and a
steady state of the full tendency stays a fixed point of the step.

Projecting per stage (rather than once per step) keeps the discrete
trajectory exactly independent of a constant odd-viscosity coefficient:
each stage's odd tendency is a gradient over the same density field the
projection uses, so it is removed completely.  The projection acts
before the exact factors, which map divergence-free fields to
divergence-free fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .fields import (
    Grid2D,
    NonFiniteError,
    ScalarField,
    VectorField,
    _div_hat,
    _grad_hat,
    _gradient_planes,
    _irfft,
    _rfft,
    _rfft_inner,
    _rfft_laplacian_symbol,
    _rfft_mode_mask,
    _rfft_wavenumbers,
    _velocity_gradient,
    divergence,
    norms,
)
from .semilag import advect_scalar
from .viscosity import DensityBounds, ViscosityLaw, _frobenius, strain_sym, viscous_stress

ForceFn = Callable[[float], Optional[VectorField]]


@dataclass(frozen=True)
class EvolveConfig:
    grid: Grid2D
    dt: float
    t_end: float
    law: ViscosityLaw
    bounds: DensityBounds

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end)
                and self.dt > 0 and self.t_end > 0):
            raise ValueError("dt and t_end must be finite and positive")
        # the law was checked on law.bounds only, and run checks rho0 on these
        if self.bounds != self.law.bounds:
            raise ValueError("bounds must equal the viscosity law's bounds")


@dataclass(frozen=True)
class InitialData:
    rho0: ScalarField
    u0: VectorField
    force: Optional[ForceFn] = None

    def validate(self, bounds: DensityBounds):
        if not bounds.contains(self.rho0.values):
            raise ValueError("initial density leaves the admissible bounds")
        # relative to the velocity gradient: the spectral divergence of a
        # divergence-free field rounds in proportion to its amplitude
        grad_u = _velocity_gradient(self.u0)  # d1u1, d2u1, d1u2, d2u2
        scale = max(1.0, np.max(np.abs(grad_u)))
        if np.max(np.abs(grad_u[0] + grad_u[3])) > 1e-10 * scale:
            raise ValueError("initial velocity is not divergence-free")


@dataclass(frozen=True)
class SimulationState:
    """`pressure` is a diagnostic: on the states `run` keeps it is the
    stage-1 projection solution of the step that starts from the state
    (for the final state, its own recovery); None on the others."""

    t: float
    rho: ScalarField
    u: VectorField
    pressure: Optional[ScalarField] = None


@dataclass
class EnergyLedger:
    """Discrete energy bookkeeping for the energy inequality.

    kinetic[k] = int rho |u|^2 dx at times[k]; dissipation/work are the
    cumulative trapezoid integrals of int mu_e |sym strain|^2 and
    2 int rho f.u.  The odd viscosity never enters the ledger.
    rho_min[k], rho_max[k] and mass[k] = int rho dx record the density
    at times[k], for the bound and mass checks.  dt[k] is the length of
    step k + 1 (from times[k] to times[k + 1]) and limit[k] what set it:
    "config" (config.dt), "cfl" (the advective CFL step) or "t_end" (the
    step was clipped to land on t_end).  cg_iterations[k] and
    cg_residual[k] are the CG iteration counts and final relative
    residuals of step k + 1's two projection solves, as (stage 1, stage 2)
    pairs.
    """

    times: list = field(default_factory=list)
    kinetic: list = field(default_factory=list)
    dissipation: list = field(default_factory=list)
    work: list = field(default_factory=list)
    rho_min: list = field(default_factory=list)
    rho_max: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    dt: list = field(default_factory=list)
    limit: list = field(default_factory=list)
    cg_iterations: list = field(default_factory=list)
    cg_residual: list = field(default_factory=list)

    def balance_defect(self, k=-1):
        return (
            self.kinetic[k]
            + self.dissipation[k]
            - self.kinetic[0]
            - self.work[k]
        )


def _density_weights(rho):
    """(rho, 1/rho) as weights for `_weighted_hat`: floats when the density
    is constant, so that its weightings take no transform, else arrays."""
    if np.ptp(rho) == 0:
        r = float(rho.flat[0])
        return r, 1.0 / r
    return rho, 1.0 / rho


def _weighted_hat(grid, w, vhat):
    """rfft2 coefficients of w * v from those of v (stacked planes): a plain
    multiply for a scalar weight, which commutes with the transform, and
    an inverse and a forward transform for an array weight."""
    if np.ndim(w) == 0:
        return w * vhat
    v = _irfft(grid, vhat)
    v *= w
    return _rfft(v)


def _advective_rhs(grid, law, rho, u, uhat, f):
    """rfft2 coefficients of the velocity tendency before pressure,
    -(u.grad)u + div(sigma)/rho + f, as a (2, n1, m) stack, of the velocity
    stack `u` with rfft2 coefficients `uhat`, and the state's dissipation
    rate int mu_e(rho) |sym strain|^2 dx (the entries of `strain_sym`).

    Single fused spectral pass: velocity derivatives are computed once and
    shared by the advection term, both strain tensors and the dissipation
    rate; the 2/3 mask is applied inside the same transform as each
    product's derivative.  The derivative stack is freed before the five
    products are transformed, which bounds the peak memory, and the
    tendency is written over the stress coefficients, whose array the
    returned stack is a view of.
    """
    mask = _rfft_mode_mask(grid)
    u1, u2 = u
    d1u1, d2u1, d1u2, d2u2 = _gradient_planes(grid, uhat)
    me = law.mu_e(rho)
    mo = law.mu_o(rho)
    off_sym = d2u1 + d1u2
    off_odd = d1u1 - d2u2
    mag = (2.0 * d1u1)**2 + off_sym**2 + off_sym**2 + (2.0 * d2u2)**2
    dissipation = float(np.sum(me * mag) * grid.cell_area)
    del mag
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
    # (1/rho) div of the stress rows (s11, s12) and (s12, s22), less the
    # advection term
    ghat = phat[2:4]
    ghat[...] = _weighted_hat(grid, _density_weights(rho)[1],
                              _div_hat(grid, phat[[[2, 3], [3, 4]]]))
    ghat -= phat[:2]
    if f is not None:
        ghat += _rfft(f.data)
    return ghat, dissipation


class ProjectionError(RuntimeError):
    pass


class BlowUpError(RuntimeError):
    """The state of a run turned non-finite; the message names the step."""


def solve_pressure(grid: Grid2D, rho, source, tol=1e-10, max_iter=500, p0=None):
    """Solve div((1/rho) grad p) = source by preconditioned CG on rfft2
    coefficients: `source`, the warm start `p0` and the returned mean-zero
    `p` are all rfft2 coefficient arrays.

    Returns (p, iterations, residual): the CG iterations taken (0 when the
    warm start already meets `tol`) and the final relative residual
    ||source - div((1/rho) grad p)|| / ||source|| that the stopping test
    read.  Inner products are the physical ones by Parseval.

    The operator A = -div((1/rho) grad) is symmetric positive definite on
    mean-zero fields.  The preconditioner is the reciprocal-density
    operator L^-1 (-div(rho grad)) L^-1, with L^-1 the inverse Laplacian:
    in the plane -div(rho^-1 grad) and -div(rho grad) are dual (Keller's
    reciprocity for 2-d conductivity, J. Math. Phys. 5, 1964), so it comes
    close to inverting A.  Each application of A, or of the middle factor,
    is one inverse and one forward transform, and none at constant rho
    (`_weighted_hat`), where the preconditioner is A's exact inverse
    rho L^-1.  That case ignores `p0` and converges from a cold start in
    one iteration, where a warm start would take its residual's
    application of A as well.
    """
    rho_w, inv_rho = _density_weights(rho)
    k1, k2 = _rfft_wavenumbers(grid)
    # the preconditioner must use the operator's own (Nyquist-zeroed)
    # symbol, or the near-null Nyquist-line modes stall the iteration;
    # the four modes where that symbol vanishes are dropped
    ksq = k1 * k1 + k2 * k2
    null = ksq == 0.0
    inv_l = np.where(null, 0.0, 1.0 / np.where(null, 1.0, ksq))

    def apply_a(phat, w):
        # -div(w grad p): symmetric positive definite on mean zero for w > 0;
        # A is w = 1/rho, the preconditioner's middle factor w = rho
        return -_div_hat(grid, _weighted_hat(grid, w, _grad_hat(grid, phat)))

    def precondition(r):
        return inv_l * apply_a(inv_l * r, rho_w)

    if np.ndim(rho_w) == 0:
        p0 = None  # the exact preconditioner makes a cold start one iteration

    def norm(a):
        return np.sqrt(_rfft_inner(grid, a, a))

    b = -source
    b[null] = 0.0
    bnorm = norm(b)
    if not np.isfinite(bnorm):
        raise NonFiniteError("pressure source contains non-finite values")
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    if p0 is None:
        p = np.zeros_like(b)
        r = b.copy()
    else:
        p = p0.copy()
        p[null] = 0.0
        r = b - apply_a(p, inv_rho)
        rnorm = norm(r)
        if rnorm <= tol * bnorm:
            return p, 0, rnorm / bnorm
    z = precondition(r)
    d = z.copy()
    rz = _rfft_inner(grid, r, z)
    for it in range(1, max_iter + 1):
        ad = apply_a(d, inv_rho)
        alpha = rz / _rfft_inner(grid, d, ad)
        p += alpha * d
        r -= alpha * ad
        rnorm = norm(r)
        if rnorm <= tol * bnorm:
            return p, it, rnorm / bnorm
        z = precondition(r)
        rz_new = _rfft_inner(grid, r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    raise ProjectionError(
        f"pressure CG failed to reach {tol:g} in {max_iter} iterations"
    )


def _project_tendency(grid, rho, ghat, p0=None):
    """Remove the (1/rho) grad q part of a tendency, given and returned as
    (2, n1, m) rfft2 coefficients, so it is divergence-free; `ghat` is
    overwritten.  Returns the projected stack, q's coefficients and the
    solve's (iterations, residual)."""
    qhat, iterations, residual = solve_pressure(grid, rho, _div_hat(grid, ghat), p0=p0)
    ghat -= _weighted_hat(grid, _density_weights(rho)[1], _grad_hat(grid, qhat))
    return ghat, qhat, (iterations, residual)


def recover_pressure(grid: Grid2D, law: ViscosityLaw, rho, u, uhat, f, p0=None):
    """rfft2 coefficients of the mean-zero pressure consistent with the
    instantaneous state, and the state's dissipation rate; `u` is the
    velocity stack and `uhat` its rfft2 coefficients.  The pressure solves
    div((1/rho) grad q) = div g for the pre-pressure tendency g, whose
    coefficients `_advective_rhs` returns."""
    ghat, dissipation = _advective_rhs(grid, law, rho, u, uhat, f)
    return solve_pressure(grid, rho, _div_hat(grid, ghat), p0=p0)[0], dissipation


_CFL = 0.5  # advective Courant number of the adaptive step
# a run whose CFL step falls below this fraction of config.dt would take
# a million times the planned steps: it is failing, not resolving
_DT_FLOOR = 1e-6
# below this z the closed form of phi2(-z) loses digits to cancellation;
# nine terms of its series are exact to rounding there
_PHI2_SERIES_Z = 0.1


def stable_dt(config: EvolveConfig, u: VectorField) -> float:
    """Adaptive step: config.dt or the advective CFL step, whichever is
    smaller.  The viscous terms set no limit (see the module docstring)."""
    h = min(config.grid.h1, config.grid.h2)
    dt = config.dt
    umax = np.max(np.abs(u.data))
    if umax > 0:
        dt = min(dt, _CFL * h / umax)
    return dt


def _etd_weights(z):
    """exp(-z), phi1 = (1 - exp(-z)) / z and phi2 = (exp(-z) - 1 + z) / z^2
    for z >= 0: with z = dt nu_s |k|^2, the exact weights of the initial
    value and of a constant and a linear forcing over one step of
    y' = -nu_s |k|^2 y + n(t)."""
    positive = z > 0.0
    zs = np.where(positive, z, 1.0)
    em1 = np.expm1(-z)
    phi1 = np.where(positive, -em1 / zs, 1.0)
    series = np.zeros_like(z)  # sum_j (-z)^j / (j + 2)!
    for j in range(8, -1, -1):
        series = series * -z + 1.0 / math.factorial(j + 2)
    phi2 = np.where(z > _PHI2_SERIES_Z, (z + em1) / (zs * zs), series)
    return em1 + 1.0, phi1, phi2


# points of the warm starts' extrapolation in time: cubic.  Over four
# evolve-var-64 runs 2, 3, 4, 5 and 6 points took 1090, 867, 808, 831
# and 853 CG iterations (ROADMAP, "Measured and rejected")
_WARM_POINTS = 4


def _warm_start(history, t):
    """CG start for a solve at time `t` from the earlier solutions in
    `history`, a list of (time, rfft2 coefficients) pairs, newest last:
    None if it is empty, else the Lagrange extrapolation to `t` through
    its last _WARM_POINTS entries at their actual times, so that CFL
    steps and a clipped last step extrapolate consistently.  One entry
    has the weight 1.0 and is returned as it is: `solve_pressure` copies
    its start, and a copy here would raise a one-step run's peak memory."""
    if not history:
        return None
    if len(history) == 1:
        return history[0][1]
    entries = history[-_WARM_POINTS:]
    p0 = None
    for i, (ti, qi) in enumerate(entries):
        weight = 1.0
        for j, (tj, _) in enumerate(entries):
            if j != i:
                weight *= (t - tj) / (ti - tj)
        if p0 is None:
            p0 = weight * qi
        else:
            p0 += weight * qi
    return p0


def step(state: SimulationState, config: EvolveConfig, force: Optional[ForceFn],
         dt: float, warm: dict):
    """One time step: density transport, projected ETDRK2 on the velocity
    with Galerkin mode truncation.

    Returns the new density and velocity fields, the stage-1 projection's
    solution q1 (rfft2 coefficients), which is the pressure of `state`, the
    dissipation rate of `state`, and the two projection solves' CG
    statistics as ((iterations 1, iterations 2), (residual 1, residual 2)).
    `warm` is a mutable dict reused across steps that holds the earlier
    solutions of the two projection solves ("q1" at the step's start time
    and "q2" at its end time, as (time, rfft2 coefficients) pairs); each
    solve starts from their cubic extrapolation to its own time
    (`_warm_start`).
    """
    grid = config.grid

    f_now = force(state.t) if force else None
    f_next = force(state.t + dt) if force else None

    rho_new = advect_scalar(state.rho, state.u, dt)
    rho0 = state.rho.values
    rho1 = rho_new.values
    q1s, q2s = warm.setdefault("q1", []), warm.setdefault("q2", [])

    u = state.u.data
    uhat = _rfft(u)
    ghat, dissipation = _advective_rhs(grid, config.law, rho0, u, uhat, f_now)
    khat, q1, cg1 = _project_tendency(grid, rho0, ghat, p0=_warm_start(q1s, state.t))
    # the stiff part is -lam * uhat, lam = nu_s |k|^2; n0 is the rest of
    # the projected stage-1 tendency; the mode cutoff is folded into the
    # weights
    nu_s = max(float(np.max(config.law.mu_e(r) / r)) for r in (rho0, rho1))
    lam = nu_s * _rfft_laplacian_symbol(grid)
    mask = _rfft_mode_mask(grid)
    decay, w1, w2 = _etd_weights(dt * lam)
    decay *= mask
    w1 *= dt * mask
    w2 *= dt * mask
    n0 = khat + lam * uhat
    uhat = decay * uhat + w1 * n0
    u = _irfft(grid, uhat)
    del ghat, khat, decay, w1  # not needed in stage 2, whose right side is the peak
    ghat, _ = _advective_rhs(grid, config.law, rho1, u, uhat, f_next)
    khat, q2, cg2 = _project_tendency(grid, rho1, ghat, p0=_warm_start(q2s, state.t + dt))
    uhat += w2 * (khat + lam * uhat - n0)
    del ghat, khat, n0
    q1s.append((state.t, q1))
    q2s.append((state.t + dt, q2))
    del q1s[:-_WARM_POINTS], q2s[:-_WARM_POINTS]
    u_new = VectorField(grid, *_irfft(grid, uhat))
    return rho_new, u_new, q1, dissipation, tuple(zip(cg1, cg2))


def _kinetic(grid, rho, u):
    return float(np.sum(rho * (u[0]**2 + u[1]**2)) * grid.cell_area)


def _work_rate(grid, rho, u, f):
    if f is None:
        return 0.0
    return 2.0 * float(np.sum(rho * (u[0] * f.comp1 + u[1] * f.comp2)) * grid.cell_area)


def run(config: EvolveConfig, data: InitialData, store_every: int = 0):
    """Integrate to t_end.  Returns (states, ledger).

    store_every=k keeps every k-th state (k=0: first and last only).  Each
    state's right side is evaluated once: the first stage of the step that
    starts from a state solves for its pressure and gives its dissipation
    rate, and only the final state has its own `recover_pressure`, warm
    started from the cubic extrapolation of the earlier stage-1 solutions
    to its time.  So a kept state's pressure is its stage-1 solution, and
    the ledger entry of a state is recorded once its rate is known; the
    ledger holds the initial state and every step's.  A state that turns
    non-finite (an overflow) raises BlowUpError naming the step and the
    time of the last finite state; step 0 is the set-up before the loop,
    which checks that the initial kinetic energy is finite.  So does a
    CFL step below _DT_FLOOR of config.dt, which a growing state reaches
    long before it overflows.
    """
    k, state = 0, None
    try:
        data.validate(config.bounds)
        grid, law, force = config.grid, config.law, data.force
        ledger = EnergyLedger()
        last = []  # the dissipation and work rates of the last recorded state

        def record(st, dissipation):
            # the entry of state `st`, whose dissipation rate is `dissipation`;
            # the trapezoids close the step that reached it
            rho, u = st.rho.values, st.u.data
            rates = (dissipation, _work_rate(grid, rho, u, force(st.t) if force else None))
            if last:
                half = 0.5 * ledger.dt[len(ledger.times) - 1]
                ledger.dissipation.append(ledger.dissipation[-1] + half * (last[0] + rates[0]))
                ledger.work.append(ledger.work[-1] + half * (last[1] + rates[1]))
            else:
                ledger.dissipation.append(0.0)
                ledger.work.append(0.0)
            last[:] = rates
            ledger.times.append(st.t)
            ledger.kinetic.append(_kinetic(grid, rho, u))
            ledger.rho_min.append(float(rho.min()))
            ledger.rho_max.append(float(rho.max()))
            ledger.mass.append(float(np.sum(rho) * grid.cell_area))

        state = SimulationState(0.0, data.rho0, data.u0)
        if not math.isfinite(_kinetic(grid, data.rho0.values, data.u0.data)):
            raise NonFiniteError("initial kinetic energy is not finite")
        states, warm = [], {}
        while state.t < config.t_end - 1e-14:
            dt = stable_dt(config, state.u)
            limit = "config" if dt == config.dt else "cfl"
            k += 1
            if dt < _DT_FLOOR * config.dt:
                raise BlowUpError(f"CFL step {dt:.3e} fell below {_DT_FLOOR:g} of the "
                                  f"configured dt {config.dt:.3e} in step {k} "
                                  f"(t = {state.t:.6g})")
            if config.t_end - state.t < dt:
                dt, limit = config.t_end - state.t, "t_end"
            ledger.dt.append(dt)
            ledger.limit.append(limit)
            rho_new, u, q1, dissipation, (iterations, residuals) = step(
                state, config, force, dt, warm)
            ledger.cg_iterations.append(iterations)
            ledger.cg_residual.append(residuals)
            if k == 1 or (store_every and (k - 1) % store_every == 0):
                states.append(replace(state, pressure=ScalarField(grid, _irfft(grid, q1))))
            record(state, dissipation)
            state = SimulationState(state.t + dt, rho_new, u)
        u = state.u.data
        qhat, dissipation = recover_pressure(
            grid, law, state.rho.values, u, _rfft(u), force(state.t) if force else None,
            p0=_warm_start(warm.get("q1"), state.t))
        states.append(replace(state, pressure=ScalarField(grid, _irfft(grid, qhat))))
        record(state, dissipation)
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
                visc = 0.5 * _frobenius(viscous_stress(law, st.rho, st.u), sphi)
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
    if not all(math.isfinite(eps) for eps in eps_list):
        raise ValueError("every eps must be finite")

    def law_for(eps):
        return ViscosityLaw(
            config.law.nu_e,
            lambda r, e=eps: c0 + e * np.sin(np.asarray(r, dtype=float)),
            config.law.mu_star,
            config.law.mu_upper,
            config.law.bounds,
        )

    def final_u(law):
        states, _ = run(replace(config, law=law), data)
        return states[-1].u

    u_ref = final_u(law_for(0.0))
    rows = []
    for eps in eps_list:
        u_eps = final_u(law_for(eps))
        diff = VectorField(config.grid, *(u_eps.data - u_ref.data))
        rows.append((float(eps), norms(diff)["l2"]))
    return rows
