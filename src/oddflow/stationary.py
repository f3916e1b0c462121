"""Stationary stream-function solver on a rectangle.

The stationary system is reduced by the stream-function ansatz
(rho, u) = (eta(phi), perp-grad phi) to a fourth-order elliptic problem

    L[mu_e] phi + A[mu_o] phi = -curl f + curl div(eta(phi) w (x) w),

with w = perp-grad phi, clamped boundary conditions (phi, dphi/dn) =
(phi0, phi1), and the variable-coefficient operators

    L[m] = B(m B .) + T(m T .),   A[m] = B(m T .) - T(m B .),

where B = d22 - d11 and T = 2 d12.  Everything is discretized by
second-order centered differences on a uniform grid with one ghost ring;
the inner and outer stencils are full (untruncated) convolutions, so the
discrete A with constant coefficient vanishes identically (the stencils
commute), mirroring the continuous cancellation.

The nonlinearity is handled by Anderson-accelerated chord iteration,
depth 3, mixing factor `damping`: the frozen-coefficient matrix of the
first iterate is factorized once (SuperLU on a minimum-degree ordering
of A^T + A) and its factors precondition the defect of every later
iterate, so each further map costs one assembly, one sparse product
and one triangular solve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.sparse.linalg import spsolve  # not called: perfbench/worker.py's tracer wraps this name

from .viscosity import ViscosityLaw


# ----------------------------------------------------------------- domain

@dataclass(frozen=True)
class RectDomain:
    """Uniform grid on [0, lx] x [0, ly] with nx x ny interior nodes.

    The mesh width h = lx/(nx+1) must match ly/(ny+1) so that all
    stencils are isotropic.
    """

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("need at least 8 interior nodes per direction")
        hx = self.lx / (self.nx + 1)
        hy = self.ly / (self.ny + 1)
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ValueError("grid cells must be square: lx/(nx+1) == ly/(ny+1)")

    @property
    def h(self):
        return self.lx / (self.nx + 1)

    def mid_coords(self):
        """Coordinates of all non-ghost nodes (boundary included)."""
        x = np.arange(self.nx + 2) * self.h
        y = np.arange(self.ny + 2) * self.h
        return np.meshgrid(x, y, indexing="ij")

    def ext_coords(self):
        """Coordinates of the extended grid (one ghost ring)."""
        x = (np.arange(self.nx + 4) - 1.0) * self.h
        y = (np.arange(self.ny + 4) - 1.0) * self.h
        return np.meshgrid(x, y, indexing="ij")


@dataclass(frozen=True)
class EtaFunction:
    """Density profile eta as a function of the stream function value."""

    fn: Callable[[np.ndarray], np.ndarray]
    rho_max: float

    def __post_init__(self):
        s = np.linspace(-3.0, 3.0, 601)
        vals = np.asarray(self.fn(s), dtype=float)
        if np.any(vals < -1e-12) or np.any(vals > self.rho_max + 1e-12):
            raise ValueError("eta must take values in [0, rho_max]")

    def __call__(self, s):
        return np.asarray(self.fn(np.asarray(s, dtype=float)), dtype=float)


def eta_affine(a, b, rho_max):
    """eta(s) = clip(a + b s, 0, rho_max)."""
    return EtaFunction(lambda s: np.clip(a + b * s, 0.0, rho_max), rho_max)


def eta_table(s_nodes, values, rho_max):
    """Piecewise-linear eta through (s_nodes, values), constant outside."""
    s_nodes = np.asarray(s_nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    return EtaFunction(lambda s: np.interp(s, s_nodes, values), rho_max)


@dataclass(frozen=True)
class BoundaryData:
    """Clamped boundary data for the stream function.

    phi0 lives on the boundary ring of the mid grid (interior entries of
    the array are unused); phi1 is stored per side, indexed along the
    full side including corners, with the outward-normal convention.
    """

    phi0: np.ndarray              # (nx+2, ny+2), ring entries meaningful
    phi1_left: np.ndarray         # (ny+2,)
    phi1_right: np.ndarray        # (ny+2,)
    phi1_bottom: np.ndarray       # (nx+2,)
    phi1_top: np.ndarray          # (nx+2,)
    c0: float = 0.0
    flux: float = 0.0


def homogeneous_boundary(domain: RectDomain) -> BoundaryData:
    return BoundaryData(
        np.zeros((domain.nx + 2, domain.ny + 2)),
        np.zeros(domain.ny + 2), np.zeros(domain.ny + 2),
        np.zeros(domain.nx + 2), np.zeros(domain.nx + 2),
    )


def boundary_data_from_g(domain: RectDomain, g, c0=0.0) -> BoundaryData:
    """Boundary data for u|_boundary = g: phi0 = -cumint(g.n) + c0, phi1 = g.tau.

    g is a callable (x, y) -> (g1, g2).  The boundary is traversed
    counterclockwise starting at the origin; tau is the counterclockwise
    unit tangent and n the outward normal, so g.tau equals g.(n-perp)
    with n-perp = (-n2, n1).  Rejects data violating the zero-flux
    compatibility condition.
    """
    nx, ny, h = domain.nx, domain.ny, domain.h
    lx, ly = domain.lx, domain.ly
    # counterclockwise node walk: bottom, right, top, left, back to start
    path = []
    for i in range(nx + 2):
        path.append((i * h, 0.0, (0.0, -1.0), (1.0, 0.0)))
    for j in range(1, ny + 2):
        path.append((lx, j * h, (1.0, 0.0), (0.0, 1.0)))
    for i in range(nx, -1, -1):
        path.append((i * h, ly, (0.0, 1.0), (-1.0, 0.0)))
    for j in range(ny, 0, -1):
        path.append((0.0, j * h, (-1.0, 0.0), (0.0, -1.0)))
    path.append(path[0])

    gn = np.array([np.dot(g(x, y), n) for x, y, n, _ in path])
    flux = float(np.trapezoid(gn, dx=h))
    if abs(flux) > 1e-10:
        raise ValueError(f"boundary velocity has nonzero flux {flux:.3e}")
    phi0_path = c0 - np.concatenate(([0.0], np.cumsum(0.5 * h * (gn[1:] + gn[:-1]))))
    closure = abs(phi0_path[-1] - phi0_path[0])
    if closure > 1e-10:
        raise ValueError(f"phi0 fails to close up: defect {closure:.3e}")

    phi0 = np.zeros((nx + 2, ny + 2))
    for (x, y, _, _), v in zip(path[:-1], phi0_path[:-1]):
        phi0[int(round(x / h)), int(round(y / h))] = v
    phi1_left = np.array([np.dot(g(0.0, j * h), (0.0, -1.0)) for j in range(ny + 2)])
    phi1_right = np.array([np.dot(g(lx, j * h), (0.0, 1.0)) for j in range(ny + 2)])
    phi1_bottom = np.array([np.dot(g(i * h, 0.0), (1.0, 0.0)) for i in range(nx + 2)])
    phi1_top = np.array([np.dot(g(i * h, ly), (-1.0, 0.0)) for i in range(nx + 2)])
    return BoundaryData(phi0, phi1_left, phi1_right, phi1_bottom, phi1_top,
                        float(c0), flux)


@dataclass(frozen=True)
class StationaryProblem:
    domain: RectDomain
    law: ViscosityLaw
    eta: EtaFunction
    force1: np.ndarray            # f components on the mid grid
    force2: np.ndarray
    boundary: BoundaryData

    def __post_init__(self):
        shape = (self.domain.nx + 2, self.domain.ny + 2)
        for name in ("force1", "force2"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name} must have mid-grid shape {shape}")
            object.__setattr__(self, name, a)


@dataclass
class StationarySolution:
    domain: RectDomain
    phi: np.ndarray               # mid grid, boundary values included
    phi_ext: np.ndarray           # extended grid with ghost ring
    rho: np.ndarray               # eta(phi) on the mid grid
    u1: np.ndarray                # perp-grad phi by centered differences
    u2: np.ndarray
    iterations: int
    update_history: list = field(default_factory=list)


# ------------------------------------------------------- operator assembly

def _mats_1d(n, h, n_cols):
    """Identity/second-difference/first-difference stencil matrices whose
    row r is centered at column r + 1 of an (n_cols)-point line."""
    rows = np.arange(n)
    eye = sp.csr_matrix((np.ones(n), (rows, rows + 1)), shape=(n, n_cols))
    s = sp.csr_matrix(
        (
            np.concatenate([np.full(n, 1.0), np.full(n, -2.0), np.full(n, 1.0)]) / h**2,
            (np.tile(rows, 3), np.concatenate([rows, rows + 1, rows + 2])),
        ),
        shape=(n, n_cols),
    )
    f = sp.csr_matrix(
        (
            np.concatenate([np.full(n, -1.0), np.full(n, 1.0)]) / (2.0 * h),
            (np.tile(rows, 2), np.concatenate([rows, rows + 2])),
        ),
        shape=(n, n_cols),
    )
    return eye, s, f


@lru_cache(maxsize=8)
def _stencil_pair(domain: RectDomain):
    """(B, T) as sparse maps extended -> mid and mid -> interior.

    Cached per domain: callers share the returned matrices and must
    never modify them in place.
    """
    nx, ny, h = domain.nx, domain.ny, domain.h
    ei_x, s_in_x, f_in_x = _mats_1d(nx + 2, h, nx + 4)
    ei_y, s_in_y, f_in_y = _mats_1d(ny + 2, h, ny + 4)
    b_in = sp.kron(ei_x, s_in_y) - sp.kron(s_in_x, ei_y)
    t_in = 2.0 * sp.kron(f_in_x, f_in_y)
    eo_x, s_out_x, f_out_x = _mats_1d(nx, h, nx + 2)
    eo_y, s_out_y, f_out_y = _mats_1d(ny, h, ny + 2)
    b_out = sp.kron(eo_x, s_out_y) - sp.kron(s_out_x, eo_y)
    t_out = 2.0 * sp.kron(f_out_x, f_out_y)
    return (b_in.tocsr(), t_in.tocsr()), (b_out.tocsr(), t_out.tocsr())


def assemble_L(domain: RectDomain, mu_e) -> sp.csr_matrix:
    """L[mu_e] = B(mu_e B .) + T(mu_e T .) as a map extended -> interior.

    mu_e is sampled on the mid grid.  Both stencil factors are full
    centered convolutions, so the operator is self-adjoint on fields
    supported away from the boundary.
    """
    mu = np.asarray(mu_e, dtype=float).ravel()
    if mu.shape != ((domain.nx + 2) * (domain.ny + 2),):
        raise ValueError("mu_e must be sampled on the mid grid")
    (b_in, t_in), (b_out, t_out) = _stencil_pair(domain)
    m = sp.diags(mu)
    return (b_out @ m @ b_in + t_out @ m @ t_in).tocsr()


def assemble_A(domain: RectDomain, mu_o) -> sp.csr_matrix:
    """A[mu_o] = B(mu_o T .) - T(mu_o B .) as a map extended -> interior.

    For constant mu_o the two compositions are identical convolutions and
    the assembled matrix vanishes identically.
    """
    mu = np.asarray(mu_o, dtype=float).ravel()
    if mu.shape != ((domain.nx + 2) * (domain.ny + 2),):
        raise ValueError("mu_o must be sampled on the mid grid")
    (b_in, t_in), (b_out, t_out) = _stencil_pair(domain)
    m = sp.diags(mu)
    a = (b_out @ m @ t_in - t_out @ m @ b_in).tocsr()
    a.eliminate_zeros()
    return a


def clamped_embedding(domain: RectDomain, bdry: BoundaryData):
    """Affine map interior values -> extended grid honoring the clamped BC.

    Returns (E, e) with phi_ext = E phi_int + e: boundary nodes carry
    phi0, ghost nodes are mirror images (`_clamped_extend`) shifted by
    2 h phi1 (outward normal derivative), corner ghosts by the shifts of
    both their sides.
    """
    nx, ny, h = domain.nx, domain.ny, domain.h
    # E: the mirrored interior index of each extended node, -1 off it
    idx = np.full((nx + 2, ny + 2), -1.0)
    idx[1:-1, 1:-1] = np.arange(nx * ny).reshape(nx, ny)
    col = _clamped_extend(domain, idx).ravel().astype(np.int64)
    rows = np.flatnonzero(col >= 0)
    emat = sp.csr_matrix((np.ones(rows.size), (rows, col[rows])), shape=(col.size, nx * ny))
    ring = np.array(bdry.phi0, dtype=float)
    ring[1:-1, 1:-1] = 0.0
    e = _clamped_extend(domain, ring)
    s = 2.0 * h
    e[0, 1:-1] += s * bdry.phi1_left
    e[-1, 1:-1] += s * bdry.phi1_right
    e[1:-1, 0] += s * bdry.phi1_bottom
    e[1:-1, -1] += s * bdry.phi1_top
    e[0, 0] += s * (bdry.phi1_left[0] + bdry.phi1_bottom[0])
    e[-1, 0] += s * (bdry.phi1_right[0] + bdry.phi1_bottom[-1])
    e[0, -1] += s * (bdry.phi1_left[-1] + bdry.phi1_top[0])
    e[-1, -1] += s * (bdry.phi1_right[-1] + bdry.phi1_top[-1])
    return emat, e.ravel()


# ------------------------------------------------------------ ellipticity

def ellipticity_check(law: ViscosityLaw, rho_samples, xi_samples) -> dict:
    """Rayleigh bounds of the principal-symbol quadratic forms.

    xi vectors are indexed by the second-order multi-indices
    (11, 22, 12, 21).  The even form must lie in
    [mu_star/2 |xi|^2, 2 mu_upper |xi|^2]; the odd form vanishes
    identically by the antisymmetric coefficient structure.
    """
    mu_star = law.mu_star
    rq_min, rq_max, odd_max = np.inf, -np.inf, 0.0
    for rho in np.asarray(rho_samples, dtype=float):
        me = float(law.mu_e(np.array([rho]))[0])
        mo = float(law.mu_o(np.array([rho]))[0])
        for xi in xi_samples:
            x11, x22, x12, x21 = (float(c) for c in xi)
            nsq = x11**2 + x22**2 + x12**2 + x21**2
            qe = (
                me * x11**2 + me * x22**2
                - 2.0 * (me - mu_star / 2.0) * x11 * x22
                + 2.0 * (me - mu_star / 2.0) * x12**2
                + 2.0 * me * x21**2
            )
            qo = mo * (
                x22 * x12 + x22 * x21 - x12 * x22 - x21 * x22
                - x11 * x12 - x11 * x21 + x12 * x11 + x21 * x11
            )
            odd_max = max(odd_max, abs(qo))
            if nsq > 0:
                rq_min = min(rq_min, qe / nsq)
                rq_max = max(rq_max, qe / nsq)
    return {
        "rayleigh_min": float(rq_min),
        "rayleigh_max": float(rq_max),
        "odd_form_max": float(odd_max),
        "lower_bound": mu_star / 2.0,
        "upper_bound": 2.0 * law.mu_upper,
    }


# ---------------------------------------------------------- nonlinear RHS

def _mid_derivs(domain: RectDomain, phi_ext):
    """Centered first derivatives of phi on the mid grid (uses ghosts)."""
    h = domain.h
    d1 = (phi_ext[2:, 1:-1] - phi_ext[:-2, 1:-1]) / (2.0 * h)
    d2 = (phi_ext[1:-1, 2:] - phi_ext[1:-1, :-2]) / (2.0 * h)
    return d1, d2


def _int_d11(a, h):
    return (a[2:, 1:-1] - 2.0 * a[1:-1, 1:-1] + a[:-2, 1:-1]) / h**2


def _int_d22(a, h):
    return (a[1:-1, 2:] - 2.0 * a[1:-1, 1:-1] + a[1:-1, :-2]) / h**2


def _int_d12(a, h):
    return (a[2:, 2:] - a[2:, :-2] - a[:-2, 2:] + a[:-2, :-2]) / (4.0 * h**2)


def nonlinear_rhs(domain: RectDomain, phi_ext, eta: EtaFunction,
                  force1, force2) -> np.ndarray:
    """Right side -curl f + curl div(eta(phi) w (x) w), w = perp-grad phi.

    The convective term is evaluated through the dual (weak-form)
    stencils -- only second derivatives of the momentum-flux tensor are
    taken, never third derivatives of phi.  Returns interior nodal
    values, shape (nx, ny).
    """
    h = domain.h
    d1, d2 = _mid_derivs(domain, phi_ext)
    w1, w2 = -d2, d1
    rho = eta(phi_ext[1:-1, 1:-1])
    k11 = rho * w1 * w1
    k12 = rho * w1 * w2
    k22 = rho * w2 * w2
    conv = _int_d11(k12, h) - _int_d22(k12, h) + _int_d12(k22 - k11, h)
    curl_f = (
        (force2[2:, 1:-1] - force2[:-2, 1:-1])
        - (force1[1:-1, 2:] - force1[1:-1, :-2])
    ) / (2.0 * h)
    return conv - curl_f


# ------------------------------------------------------------- the solver

class PicardError(RuntimeError):
    def __init__(self, msg, last_update):
        super().__init__(msg)
        self.last_update = last_update


def _ext_to_mid(phi_ext):
    return phi_ext[1:-1, 1:-1]


_ANDERSON_DEPTH = 3


def picard_solve(problem: StationaryProblem, damping=1.0, tol=1e-9,
                 max_iter=60) -> StationarySolution:
    """Anderson-accelerated chord iteration, depth 3, mixing factor `damping`.

    With M(phi) = [L(nu_e(eta(phi))) + A(nu_o(eta(phi)))] E the
    frozen-coefficient matrix and the clamped boundary data eliminated
    through the ghost ring, the chord map (Kelley 1995) is

        G(phi) = phi + M_0^{-1} [rhs(phi) - M(phi) phi],

    where M_0 = M(phi_1) is factorized once, at the first map, and kept
    for the whole solve.  Its fixed points are those of the Picard map
    phi -> M(phi)^{-1} rhs(phi).  With residuals f_k = G(phi_k) - phi_k,
    the next iterate is (Walker & Ni 2011)

        phi_{k+1} = phi_k + b f_k - (dPhi + b dF) gamma,

    b = damping, where the columns of dPhi and dF are the differences of
    the last (at most 3) consecutive iterates and residuals and gamma
    minimizes |f_k - dF gamma| in the least-squares sense; with no
    history this is the relaxation phi_k + b f_k.  Converged when both
    the update h |phi_{k+1} - phi_k| and the map residual h |f_k| are at
    most tol.  On the manufactured problem of the tests this takes 7
    maps and one factorization.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    dom = problem.domain
    nx, ny, h = dom.nx, dom.ny, dom.h
    emb, shift = clamped_embedding(dom, problem.boundary)
    phi_int = np.zeros(nx * ny)
    history = []
    d_phi, d_res = deque(maxlen=_ANDERSON_DEPTH), deque(maxlen=_ANDERSON_DEPTH)
    prev = None                              # (phi_k, f_k) of the last sweep
    lu = None                                # factors of M_0
    for it in range(1, max_iter + 1):
        phi_ext = (emb @ phi_int + shift).reshape(nx + 4, ny + 4)
        rho = problem.eta(_ext_to_mid(phi_ext))
        op = assemble_L(dom, problem.law.mu_e(rho)) + assemble_A(
            dom, problem.law.mu_o(rho)
        )
        defect = nonlinear_rhs(dom, phi_ext, problem.eta,
                               problem.force1, problem.force2).ravel()
        defect -= op @ phi_ext.ravel()
        if lu is None:
            mat = (op @ emb).tocsc()
            del op                   # free it before the factorization's peak
            try:
                lu = splu(mat, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as e:
                raise PicardError(f"factorization failed in iteration {it}: {e} "
                                  "(last update inf)", np.inf) from e
        res = lu.solve(defect)
        if prev is not None:
            d_phi.append(phi_int - prev[0])
            d_res.append(res - prev[1])
        if not np.all(np.isfinite(res)) or (d_res and not np.all(np.isfinite(d_res[-1]))):
            raise PicardError(f"Picard map turned non-finite in iteration {it} "
                              "(last update inf)", np.inf)
        step = damping * res
        if d_res:
            df = np.column_stack(d_res)
            gamma = np.linalg.lstsq(df, res, rcond=None)[0]
            step -= (np.column_stack(d_phi) + damping * df) @ gamma
        prev = (phi_int, res)
        update = h * float(np.linalg.norm(step))
        history.append(update)
        phi_int = phi_int + step
        # a step stalled by rounding in a diverging iteration is no fixed
        # point: the map residual must be small too
        if update <= tol and h * float(np.linalg.norm(res)) <= tol:
            phi_ext = (emb @ phi_int + shift).reshape(nx + 4, ny + 4)
            d1, d2 = _mid_derivs(dom, phi_ext)
            return StationarySolution(
                dom, _ext_to_mid(phi_ext).copy(), phi_ext,
                problem.eta(_ext_to_mid(phi_ext)), -d2, d1, it, history,
            )
    raise PicardError(
        f"no convergence in {max_iter} iterations (last update {history[-1]:.3e})",
        history[-1],
    )


def recover_velocity(sol: StationarySolution):
    """(rho, u) = (eta(phi), perp-grad phi) together with div u interior max."""
    dom = sol.domain
    h = dom.h
    div = (
        (sol.u1[2:, 1:-1] - sol.u1[:-2, 1:-1])
        + (sol.u2[1:-1, 2:] - sol.u2[1:-1, :-2])
    ) / (2.0 * h)
    return sol.rho, (sol.u1, sol.u2), float(np.max(np.abs(div)))


# -------------------------------------------------------- weak-form check

def _mid_b_t(domain, a_ext):
    """B and T of an extended-grid function, evaluated on the mid grid."""
    h = domain.h
    return _int_d22(a_ext, h) - _int_d11(a_ext, h), 2.0 * _int_d12(a_ext, h)


def _clamped_extend(domain, psi_mid):
    """Extend a clamped test function by mirror ghosts (zero data)."""
    nx, ny = domain.nx, domain.ny
    ext = np.zeros((nx + 4, ny + 4))
    ext[1:-1, 1:-1] = psi_mid
    ext[0, 1:-1] = psi_mid[1, :]
    ext[-1, 1:-1] = psi_mid[-2, :]
    ext[1:-1, 0] = psi_mid[:, 1]
    ext[1:-1, -1] = psi_mid[:, -2]
    ext[0, 0] = psi_mid[1, 1]
    ext[0, -1] = psi_mid[1, -2]
    ext[-1, 0] = psi_mid[-2, 1]
    ext[-1, -1] = psi_mid[-2, -2]
    return ext


def residual_weak_stationary(sol: StationarySolution,
                             problem: StationaryProblem,
                             test_functions) -> float:
    """Defect of the integral identity defining weak solutions.

    Each test function is a mid-grid array vanishing on the boundary ring
    (clamped support).  Both viscous integrals, the convective integral
    and the force pairing are evaluated by the composite midpoint rule;
    the worst absolute defect over the tests is returned.
    """
    dom = problem.domain
    h = dom.h
    bphi, tphi = _mid_b_t(dom, sol.phi_ext)
    rho = sol.rho
    me = problem.law.mu_e(rho)
    mo = problem.law.mu_o(rho)
    w1, w2 = sol.u1, sol.u2
    worst = 0.0
    for psi in test_functions:
        psi = np.asarray(psi, dtype=float)
        ring = np.concatenate([psi[0], psi[-1], psi[:, 0], psi[:, -1]])
        if np.max(np.abs(ring)) > 0:
            raise ValueError("test function must vanish on the boundary ring")
        psi_ext = _clamped_extend(dom, psi)
        bpsi, tpsi = _mid_b_t(dom, psi_ext)
        d1psi, d2psi = _mid_derivs(dom, psi_ext)
        d11, d22, d12 = _int_d11(psi_ext, h), _int_d22(psi_ext, h), _int_d12(psi_ext, h)
        lhs = np.sum(me * (bphi * bpsi + tphi * tpsi)) * h * h
        lhs += np.sum(mo * (tphi * bpsi - bphi * tpsi)) * h * h
        # grad(perp-grad psi) entries: rows are the gradient index
        conv = np.sum(
            rho * (
                w1 * w1 * (-d12) + w1 * w2 * d11 + w2 * w1 * (-d22) + w2 * w2 * d12
            )
        ) * h * h
        frc = np.sum(
            problem.force1 * (-d2psi) + problem.force2 * d1psi
        ) * h * h
        worst = max(worst, abs(lhs - conv - frc))
    return worst
