"""Stationary stream-function solver on a rectangle.

The stationary system is reduced by the stream-function ansatz
(rho, u) = (eta(phi), perp-grad phi) to a fourth-order elliptic problem

    L[mu_e] phi + A[mu_o] phi = -curl f + curl div(eta(phi) w (x) w),

with w = perp-grad phi, clamped boundary conditions (phi, dphi/dn) =
(phi0, phi1), and the variable-coefficient operators

    L[m] = B(m B .) + T(m T .),   A[m] = B(m T .) - T(m B .),

where B = d22 - d11 and T = 2 d12.  Everything is discretized by
second-order centered differences on a uniform grid with one ghost ring.
B and T are written once, as 3x3 weight tables (`_B`, `_T`): `_assemble`
composes them into the sparse matrix, 25 entries a row, and `_stencil`
applies them to arrays.  The inner and outer stencils are full
(untruncated) convolutions, so the discrete A with constant coefficient
vanishes identically (the stencils commute), mirroring the continuous
cancellation.

The nonlinearity is handled by Anderson-accelerated chord iteration,
depth 3, mixing factor `damping`: the frozen-coefficient operator of the
first iterate is set up once and preconditions the defect of every later
iterate.  When that first map has constant coefficients (always so for
phi0 = 0 boundary data, as in the manufactured problem and the
tangential wall flows), A vanishes and the operator is a multiple of
the clamped discrete biharmonic, which a DST-I solve with a capacitance
correction on the first interior layer inverts exactly with no matrix
(`_clamped_biharmonic_solver`).  A variable first map is assembled and
factorized once (SuperLU on a minimum-degree ordering of A^T + A).  The
defect needs only the operator's action, which the same weight tables
apply without a matrix, so each further map costs one stencil
application of the operator and one preconditioner solve.

Only the sparse path needs scipy, and it imports `scipy.sparse` when it
runs: importing this module, and solving a problem whose first map has
constant coefficients, load numpy alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .viscosity import ViscosityLaw


def __getattr__(name):
    # `stationary.spsolve` is never called here; perfbench/worker.py's
    # tracer wraps that name.  This shim goes when the benchmark stops
    # wrapping it (ROADMAP item 1).
    if name == "spsolve":
        from scipy.sparse.linalg import spsolve
        return spsolve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        # comparisons with nan are False: a nan length fails this test too
        if not (0.0 < self.lx < np.inf and 0.0 < self.ly < np.inf):
            raise ValueError("domain lengths must be finite and positive")
        hx = self.lx / (self.nx + 1)
        hy = self.ly / (self.ny + 1)
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ValueError("grid cells must be square: lx/(nx+1) == ly/(ny+1)")

    @property
    def h(self):
        return self.lx / (self.nx + 1)

    def _mid_axes(self):
        # linspace puts the far boundary at exactly lx (ly); i * h can round it
        return (np.linspace(0.0, self.lx, self.nx + 2),
                np.linspace(0.0, self.ly, self.ny + 2))

    def mid_coords(self):
        """Coordinates of all non-ghost nodes (boundary included)."""
        return np.meshgrid(*self._mid_axes(), indexing="ij")

    def ext_coords(self):
        """Coordinates of the extended grid: the mid nodes and one ghost ring."""
        h = self.h
        x, y = (np.concatenate(([-h], a, [a[-1] + h])) for a in self._mid_axes())
        return np.meshgrid(x, y, indexing="ij")


@dataclass(frozen=True)
class EtaFunction:
    """Density profile eta as a function of the stream function value."""

    fn: Callable[[np.ndarray], np.ndarray]
    rho_max: float

    def __post_init__(self):
        # comparisons with nan are False: a nan rho_max fails this test too
        if not 0.0 < self.rho_max < np.inf:
            raise ValueError("eta's rho_max must be finite and positive")
        s = np.linspace(-3.0, 3.0, 601)
        vals = np.asarray(self.fn(s), dtype=float)
        if np.any(vals < -1e-12) or np.any(vals > self.rho_max + 1e-12):
            raise ValueError("eta must take values in [0, rho_max]")

    def __call__(self, s):
        return np.asarray(self.fn(np.asarray(s, dtype=float)), dtype=float)


def eta_affine(a, b, rho_max):
    """eta(s) = clip(a + b s, 0, rho_max)."""
    return EtaFunction(lambda s: np.clip(a + b * s, 0.0, rho_max), rho_max)


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
    with n-perp = (-n2, n1).  Rejects non-finite data and data violating
    the zero-flux compatibility condition.
    """
    nx, ny, h = domain.nx, domain.ny, domain.h
    # node coordinates with exact end points, so that g sees the corners
    # at (lx, ly) and not at a rounded (nx+1) * h
    x, y = (a.tolist() for a in domain._mid_axes())
    # counterclockwise node walk: bottom, right, top, left, back to start
    path = []
    for i in range(nx + 2):
        path.append((i, 0, (0.0, -1.0)))
    for j in range(1, ny + 2):
        path.append((nx + 1, j, (1.0, 0.0)))
    for i in range(nx, -1, -1):
        path.append((i, ny + 1, (0.0, 1.0)))
    for j in range(ny, 0, -1):
        path.append((0, j, (-1.0, 0.0)))
    path.append(path[0])

    # the flux and closure tests below are False for nan; a non-finite
    # component of g makes its dot product with every normal non-finite
    # (inf * 0 is nan), so this test covers the tangential data too
    with np.errstate(invalid="ignore"):
        gn = np.array([np.dot(g(x[i], y[j]), n) for i, j, n in path])
    if not np.all(np.isfinite(gn)):
        raise ValueError("boundary velocity is not finite")
    flux = float(np.trapezoid(gn, dx=h))
    if abs(flux) > 1e-10:
        raise ValueError(f"boundary velocity has nonzero flux {flux:.3e}")
    phi0_path = c0 - np.concatenate(([0.0], np.cumsum(0.5 * h * (gn[1:] + gn[:-1]))))
    closure = abs(phi0_path[-1] - phi0_path[0])
    if closure > 1e-10:
        raise ValueError(f"phi0 fails to close up: defect {closure:.3e}")

    phi0 = np.zeros((nx + 2, ny + 2))
    for (i, j, _), v in zip(path[:-1], phi0_path[:-1]):
        phi0[i, j] = v
    phi1_left = np.array([np.dot(g(x[0], yj), (0.0, -1.0)) for yj in y])
    phi1_right = np.array([np.dot(g(x[-1], yj), (0.0, 1.0)) for yj in y])
    phi1_bottom = np.array([np.dot(g(xi, y[0]), (1.0, 0.0)) for xi in x])
    phi1_top = np.array([np.dot(g(xi, y[-1]), (-1.0, 0.0)) for xi in x])
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

# B = d22 - d11 and T = 2 d12 as weight tables: offset (di, dj) -> weight,
# times 1/h^2.  Both the assembled matrix and the matrix-free operator
# read these two tables.
_B = {(-1, 0): -1.0, (1, 0): -1.0, (0, -1): 1.0, (0, 1): 1.0}
_T = {(-1, -1): 0.5, (1, 1): 0.5, (-1, 1): -0.5, (1, -1): -0.5}


def _stencil(a, weights, h):
    """Apply a weight table to an array: (m+2, n+2) -> (m, n)."""
    m, n = a.shape[0] - 2, a.shape[1] - 2
    out = np.zeros((m, n))
    for (di, dj), w in weights.items():
        out += w * a[1 + di:1 + di + m, 1 + dj:1 + dj + n]
    return out / h**2


def _assemble(domain: RectDomain, mu, *terms):
    """Sum of sign * outer(mu * inner(.)) over (sign, outer, inner) terms,
    as a CSR map extended -> interior.

    Row (i, j) couples the 25 extended nodes within two cells of its own:
    outer offset o and inner offset p land on o + p, with mu taken at
    the mid node o away from the row's node.
    """
    import scipy.sparse as sp

    nx, ny, h = domain.nx, domain.ny, domain.h
    vals = np.zeros((nx, ny, 5, 5))
    for sign, outer, inner in terms:
        for (oi, oj), wo in outer.items():
            m = (sign * wo) * mu[1 + oi:1 + oi + nx, 1 + oj:1 + oj + ny]
            for (pi, pj), wi in inner.items():
                vals[:, :, 2 + oi + pi, 2 + oj + pj] += wi * m
    width = ny + 4
    # extended-grid index of each row's 5x5 window corner, offset (-2, -2)
    corner = np.arange(nx)[:, None] * width + np.arange(ny)
    offsets = np.arange(5)[:, None] * width + np.arange(5)
    cols = (corner[:, :, None, None] + offsets).ravel()
    mat = sp.csr_matrix(
        (vals.ravel() / h**4, cols, np.arange(0, 25 * nx * ny + 1, 25)),
        shape=(nx * ny, (nx + 4) * width),
    )
    mat.eliminate_zeros()
    return mat


def assemble_L(domain: RectDomain, mu_e):
    """L[mu_e] = B(mu_e B .) + T(mu_e T .) as a map extended -> interior.

    mu_e is sampled on the mid grid.  Both stencil factors are full
    centered convolutions, so the operator is self-adjoint on fields
    supported away from the boundary.
    """
    mu = np.asarray(mu_e, dtype=float).ravel()
    if mu.shape != ((domain.nx + 2) * (domain.ny + 2),):
        raise ValueError("mu_e must be sampled on the mid grid")
    return _assemble(domain, mu.reshape(domain.nx + 2, -1), (1.0, _B, _B), (1.0, _T, _T))


def assemble_A(domain: RectDomain, mu_o):
    """A[mu_o] = B(mu_o T .) - T(mu_o B .) as a map extended -> interior.

    For constant mu_o the two compositions are identical convolutions and
    the assembled matrix vanishes identically.
    """
    mu = np.asarray(mu_o, dtype=float).ravel()
    if mu.shape != ((domain.nx + 2) * (domain.ny + 2),):
        raise ValueError("mu_o must be sampled on the mid grid")
    return _assemble(domain, mu.reshape(domain.nx + 2, -1), (1.0, _B, _T), (-1.0, _T, _B))


def clamped_embedding(domain: RectDomain, bdry: BoundaryData):
    """Affine map interior values -> extended grid honoring the clamped BC.

    Returns (E, e) with phi_ext = E phi_int + e: E is the sparse matrix of
    `_embedding_matrix` and e the flat `_boundary_shift`.
    """
    return _embedding_matrix(domain), _boundary_shift(domain, bdry).ravel()


def _embedding_matrix(domain: RectDomain):
    """E of phi_ext = E phi_int + e as a CSR matrix: `_clamped_extend` of
    the interior zero-padded to the mid grid."""
    import scipy.sparse as sp

    nx, ny = domain.nx, domain.ny
    # the mirrored interior index of each extended node, -1 off it
    idx = np.full((nx + 2, ny + 2), -1.0)
    idx[1:-1, 1:-1] = np.arange(nx * ny).reshape(nx, ny)
    col = _clamped_extend(domain, idx).ravel().astype(np.int64)
    rows = np.flatnonzero(col >= 0)
    return sp.csr_matrix((np.ones(rows.size), (rows, col[rows])), shape=(col.size, nx * ny))


def _boundary_shift(domain: RectDomain, bdry: BoundaryData):
    """e of phi_ext = E phi_int + e on the extended grid: boundary nodes
    carry phi0, ghost nodes are mirror images (`_clamped_extend`) of it
    shifted by 2 h phi1 (outward normal derivative), corner ghosts by the
    shifts of both their sides."""
    ring = np.array(bdry.phi0, dtype=float)
    ring[1:-1, 1:-1] = 0.0
    e = _clamped_extend(domain, ring)
    s = 2.0 * domain.h
    e[0, 1:-1] += s * bdry.phi1_left
    e[-1, 1:-1] += s * bdry.phi1_right
    e[1:-1, 0] += s * bdry.phi1_bottom
    e[1:-1, -1] += s * bdry.phi1_top
    e[0, 0] += s * (bdry.phi1_left[0] + bdry.phi1_bottom[0])
    e[-1, 0] += s * (bdry.phi1_right[0] + bdry.phi1_bottom[-1])
    e[0, -1] += s * (bdry.phi1_left[-1] + bdry.phi1_top[0])
    e[-1, -1] += s * (bdry.phi1_right[-1] + bdry.phi1_top[-1])
    return e


# ------------------------------------------- constant-coefficient solve

def _dst_basis(n):
    """The orthonormal DST-I matrix of order n (symmetric, its own
    inverse) and, in its basis, the symbols d of the Dirichlet second
    difference tridiag(1, -2, 1) and s of CC_odd, a quarter of the
    width-2h second difference through odd ghosts."""
    k = np.arange(1, n + 1)
    theta = np.pi * k / (n + 1)
    return (np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, theta)),
            2.0 * np.cos(theta) - 2.0, 0.5 * (np.cos(2.0 * theta) - 1.0))


def _clamped_biharmonic_solver(domain: RectDomain):
    """solve(b) = K^{-1} b for K = h^4 L[1] E, the clamped operator of
    constant coefficient 1, by DST-I and a capacitance correction.

    With Dd = tridiag(1, -2, 1) and P = e_1 e_1^T + e_n e_n^T on each
    axis, the mirror ghosts of E make K a sum of Kronecker products,
    x factor first:

        K = I (x) DD + DD (x) I - 2 Dd (x) Dd + 4 CC (x) CC,
        DD = Dd^2 + 2 P,   CC = CC_odd + P / 2.

    Dropping every P leaves K_0, diagonal in the DST-I basis S of each
    axis with symbol (d_x - d_y)^2 + 4 s_x s_y > 0.  The rest,

        K - K_0 = (2 N + P) (x) P + 2 P (x) N,   N = I + CC_odd,

    lives on the first interior layer: the capacitance-matrix method
    (Buzbee, Dorr, George & Golub 1971; Bjorstad 1983).  In the DST
    basis N is diag(1 + s), and S P S = a+ a+^T + a- a-^T, with a+ (a-)
    the first row of sqrt(2) S on its modes even (odd) under the axis's
    reflection.  So K splits into four independent symmetry classes
    (x parity, y parity).  In each, with a, b the x and y vectors of the
    class and V = [a (x) I, I (x) b] (the layer's two x and two y sides),

        K_c = K_0c + V M_c V^T,   M_c = diag(2 (1 + s_y), 2 (1 + s_x) + a a^T),

    and the Woodbury identity solves it with the capacitance matrix
    G_c = V^T K_0c^{-1} V, whose side blocks are diagonal:

        K_c^{-1} = K_0c^{-1} - K_0c^{-1} V M_c (I + G_c M_c)^{-1} V^T K_0c^{-1}.

    Set-up solves four systems of order about (nx + ny) / 2; a solve
    costs two 2-D DSTs (four dense matrix products) and O(nx ny) besides.
    """
    nx, ny = domain.nx, domain.ny
    sx, dx, cx = _dst_basis(nx)
    sy, dy, cy = _dst_basis(ny)
    w = 1.0 / ((dx[:, None] - dy) ** 2 + 4.0 * cx[:, None] * cy)   # K_0^{-1}
    classes = []
    for px in (0, 1):
        for py in (0, 1):
            cls = (slice(px, None, 2), slice(py, None, 2))
            a, b, wc = np.sqrt(2.0) * sx[0, px::2], np.sqrt(2.0) * sy[0, py::2], w[cls]
            gxy = (a[:, None] * wc * b).T
            g = np.block([[np.diag(a ** 2 @ wc), gxy], [gxy.T, np.diag(wc @ b ** 2)]])
            m = np.zeros_like(g)
            m[:b.size, :b.size] = np.diag(2.0 * (1.0 + cy[py::2]))
            m[b.size:, b.size:] = np.diag(2.0 * (1.0 + cx[px::2])) + np.outer(a, a)
            # M_c (I + G_c M_c)^{-1} by a solve, M_c being symmetric
            q = np.linalg.solve((np.eye(g.shape[0]) + g @ m).T, m).T
            classes.append((cls, a, b, q))

    def solve(rhs):
        bh = sx @ rhs.reshape(nx, ny) @ sy
        xh = w * bh
        for cls, a, b, q in classes:
            u = xh[cls]
            z = q @ np.concatenate((a @ u, u @ b))
            xh[cls] = w[cls] * (bh[cls] - np.outer(a, z[:b.size]) - np.outer(z[b.size:], b))
        return (sx @ xh @ sy).ravel()

    return solve


# ------------------------------------------------------------ ellipticity

def ellipticity_check(law: ViscosityLaw, rho_samples, xi_samples) -> dict:
    """Rayleigh bounds of the principal-symbol quadratic forms.

    xi vectors are indexed by the second-order multi-indices
    (11, 22, 12, 21).  The even form must lie in
    [mu_star/2 |xi|^2, 2 mu_upper |xi|^2]; the odd form vanishes
    identically by the antisymmetric coefficient structure.
    """
    mu_star = law.mu_star
    rho = np.asarray(rho_samples, dtype=float)
    me, mo = law.mu_e(rho)[:, None], law.mu_o(rho)[:, None]
    xi = np.asarray(xi_samples, dtype=float).reshape(-1, 4)
    x11, x22, x12, x21 = xi.T
    # squared by libm pow, as a Python float's ** is: numpy's ** 2 is
    # x * x, which differs in the last bit for about one square in 1,200
    s11, s22, s12, s21 = np.float_power(xi, 2).T
    nsq = s11 + s22 + s12 + s21
    qe = (
        me * s11 + me * s22
        - 2.0 * (me - mu_star / 2.0) * x11 * x22
        + 2.0 * (me - mu_star / 2.0) * s12
        + 2.0 * me * s21
    )
    qo = mo * (
        x22 * x12 + x22 * x21 - x12 * x22 - x21 * x22
        - x11 * x12 - x11 * x21 + x12 * x11 + x21 * x11
    )
    # a zero xi has no quotient but still counts for the odd form
    rq = qe[:, nsq > 0] / nsq[nsq > 0]
    return {
        "rayleigh_min": float(np.min(rq, initial=np.inf)),
        "rayleigh_max": float(np.max(rq, initial=-np.inf)),
        "odd_form_max": float(np.max(np.abs(qo), initial=0.0)),
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
    conv = 0.5 * _stencil(k22 - k11, _T, h) - _stencil(k12, _B, h)
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


def _apply_operator(domain, mu_e, mu_o, phi_ext):
    """(L[mu_e] + A[mu_o]) phi_ext on the interior, without a matrix.

    With b, t = B phi, T phi on the mid grid, the operator is
    B(mu_e b + mu_o t) + T(mu_e t - mu_o b): the weight tables _B and _T
    that `assemble_L` and `assemble_A` compose, applied to arrays.
    """
    h = domain.h
    b, t = _mid_b_t(domain, phi_ext)
    return _stencil(mu_e * b + mu_o * t, _B, h) + _stencil(mu_e * t - mu_o * b, _T, h)


def _sparse_chord_solver(domain, mu_e, mu_o):
    """M_0^{-1} for M_0 = (L[mu_e] + A[mu_o]) E, assembled and factorized
    by SuperLU on a minimum-degree ordering of A^T + A."""
    from scipy.sparse.linalg import splu

    emb = _embedding_matrix(domain)
    mat = ((assemble_L(domain, mu_e) + assemble_A(domain, mu_o)) @ emb).tocsc()
    return splu(mat, permc_spec="MMD_AT_PLUS_A").solve


def _chord_solver(domain, mu_e, mu_o):
    """M_0^{-1} as a callable, M_0 = (L[mu_e] + A[mu_o]) E the chord's
    frozen matrix; raises RuntimeError when M_0 is singular.

    Constant coefficients make A vanish and M_0 = mu K / h^4, which
    `_clamped_biharmonic_solver` solves with no matrix.  np.ptp is nan,
    not 0, when an entry is non-finite, so such a map goes to SuperLU,
    which finds it singular.
    """
    if np.ptp(mu_e) == 0.0 and np.ptp(mu_o) == 0.0:
        mu = float(mu_e.flat[0])
        if mu == 0.0:
            raise RuntimeError("constant viscosity 0 makes the operator singular")
        fast = _clamped_biharmonic_solver(domain)
        scale = domain.h ** 4 / mu
        return lambda defect: scale * fast(defect)
    return _sparse_chord_solver(domain, mu_e, mu_o)


_ANDERSON_DEPTH = 3


def picard_solve(problem: StationaryProblem, damping=1.0, tol=1e-9,
                 max_iter=60) -> StationarySolution:
    """Anderson-accelerated chord iteration, depth 3, mixing factor `damping`.

    With M(phi) = [L(nu_e(eta(phi))) + A(nu_o(eta(phi)))] E the
    frozen-coefficient matrix and the clamped boundary data eliminated
    through the ghost ring, the chord map (Kelley 1995) is

        G(phi) = phi + M_0^{-1} [rhs(phi) - M(phi) phi],

    where M_0 = M(phi_1) is set up once, at the first map, and kept for
    the whole solve (`_chord_solver`: a DST-I capacitance solve when
    M_0 has constant coefficients, SuperLU factors otherwise); the
    product M(phi) phi is a stencil application of the operator, so a
    later map costs that and one solve with M_0.
    Its fixed points are those of the Picard map
    phi -> M(phi)^{-1} rhs(phi).  With residuals f_k = G(phi_k) - phi_k,
    the next iterate is (Walker & Ni 2011)

        phi_{k+1} = phi_k + b f_k - (dPhi + b dF) gamma,

    b = damping, where the columns of dPhi and dF are the differences of
    the last (at most 3) consecutive iterates and residuals and gamma
    minimizes |f_k - dF gamma| in the least-squares sense; with no
    history this is the relaxation phi_k + b f_k.  Converged when both
    the update h |phi_{k+1} - phi_k| and the map residual h |f_k| are at
    most tol.  On the manufactured problem of the tests this takes 7
    maps and no factorization.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    dom = problem.domain
    nx, ny, h = dom.nx, dom.ny, dom.h
    shift = _boundary_shift(dom, problem.boundary)
    mid = np.zeros((nx + 2, ny + 2))         # phi_int zero-padded to the mid grid

    def extend(phi):
        """phi_ext = E phi + e, by mirror ghosts instead of the matrix E."""
        mid[1:-1, 1:-1] = phi.reshape(nx, ny)
        return _clamped_extend(dom, mid) + shift

    phi_int = np.zeros(nx * ny)
    history = []
    d_phi, d_res = deque(maxlen=_ANDERSON_DEPTH), deque(maxlen=_ANDERSON_DEPTH)
    prev = None                              # (phi_k, f_k) of the last sweep
    solve = None                             # M_0^{-1}, set up at the first map
    for it in range(1, max_iter + 1):
        phi_ext = extend(phi_int)
        rho = problem.eta(_ext_to_mid(phi_ext))
        mu_e, mu_o = problem.law.mu_e(rho), problem.law.mu_o(rho)
        defect = (nonlinear_rhs(dom, phi_ext, problem.eta, problem.force1, problem.force2)
                  - _apply_operator(dom, mu_e, mu_o, phi_ext)).ravel()
        if solve is None:
            try:
                solve = _chord_solver(dom, mu_e, mu_o)
            except RuntimeError as e:
                raise PicardError(f"factorization failed in iteration {it}: {e} "
                                  "(last update inf)", np.inf) from e
        res = solve(defect)
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
            phi_ext = extend(phi_int)
            d1, d2 = _mid_derivs(dom, phi_ext)
            return StationarySolution(
                dom, _ext_to_mid(phi_ext).copy(), phi_ext,
                problem.eta(_ext_to_mid(phi_ext)), -d2, d1, it, history,
            )
    raise PicardError(
        f"no convergence in {max_iter} iterations (last update {history[-1]:.3e})",
        history[-1],
    )


# -------------------------------------------------------- weak-form check

def _mid_b_t(domain, a_ext):
    """B and T of an extended-grid function, evaluated on the mid grid."""
    return _stencil(a_ext, _B, domain.h), _stencil(a_ext, _T, domain.h)


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
        lhs = np.sum(me * (bphi * bpsi + tphi * tpsi)) * h * h
        lhs += np.sum(mo * (tphi * bpsi - bphi * tpsi)) * h * h
        # (w (x) w) : grad(perp-grad psi) = 1/2 (w2^2 - w1^2) T psi - w1 w2 B psi
        conv = np.sum(rho * (0.5 * (w2 * w2 - w1 * w1) * tpsi - w1 * w2 * bpsi)) * h * h
        frc = np.sum(
            problem.force1 * (-d2psi) + problem.force2 * d1psi
        ) * h * h
        worst = max(worst, abs(lhs - conv - frc))
    return worst
