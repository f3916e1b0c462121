import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.linalg import splu

import _mms
from oddflow import stationary
from oddflow.stationary import (
    BoundaryData,
    EtaFunction,
    PicardError,
    RectDomain,
    StationaryProblem,
    _apply_operator,
    assemble_A,
    assemble_L,
    boundary_data_from_g,
    clamped_embedding,
    ellipticity_check,
    eta_affine,
    homogeneous_boundary,
    nonlinear_rhs,
    picard_solve,
    residual_weak_stationary,
)
from oddflow.viscosity import DensityBounds, make_law


def test_domain_validation():
    with pytest.raises(ValueError):
        RectDomain(4, 4)
    with pytest.raises(ValueError):
        RectDomain(16, 16, 1.0, 2.0)  # non-square cells
    dom = RectDomain(15, 31, 1.0, 2.0)
    assert dom.h == pytest.approx(1.0 / 16.0)


def test_domain_rejects_non_finite_or_negative_lengths():
    # nan and equal negative lengths both pass the square-cell test
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            RectDomain(16, 16, bad, bad)


def test_far_boundary_nodes_sit_exactly_on_the_boundary():
    # at nx = 48, 49 * (1 / 49) rounds to 0.9999999999999999
    dom = RectDomain(48, 48)
    xm, ym = dom.mid_coords()
    xe, ye = dom.ext_coords()
    assert xm[-1, 0] == ym[0, -1] == xe[-2, 0] == ye[0, -2] == dom.lx
    assert xm[0, 0] == xe[1, 0] == 0.0
    assert np.array_equal(xe[1:-1, 1:-1], xm) and np.array_equal(ye[1:-1, 1:-1], ym)
    assert xe[0, 0] == -dom.h and xe[-1, 0] == dom.lx + dom.h


def eta_table(s_nodes, values, rho_max):
    """Piecewise-linear eta through (s_nodes, values), constant outside."""
    s_nodes = np.asarray(s_nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    return EtaFunction(lambda s: np.interp(s, s_nodes, values), rho_max)


def test_eta_validation_and_tables():
    with pytest.raises(ValueError):
        EtaFunction(lambda s: s, 2.0)  # negative on [-3, 0)
    eta = eta_affine(1.0, 0.3, 2.0)
    assert eta(0.0) == pytest.approx(1.0)
    assert eta(10.0) == pytest.approx(2.0)  # clipped at rho_max
    tab = eta_table([0.0, 1.0], [0.5, 1.5], 2.0)
    assert tab(0.5) == pytest.approx(1.0)
    assert tab(-4.0) == pytest.approx(0.5)  # constant outside the table


def test_eta_rejects_a_non_finite_rho_max():
    # a nan or infinite rho_max passed the range check
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            EtaFunction(lambda s: np.ones_like(s), bad)


# -------------------------------------------------- operator-level oracles

def _margin_fields(dom, seed, margin=3):
    """Random extended-grid field supported margin cells inside, plus its
    interior restriction (for pairing with operator output)."""
    rng = np.random.default_rng(seed)
    ext = np.zeros((dom.nx + 4, dom.ny + 4))
    ext[2 + margin:-(2 + margin), 2 + margin:-(2 + margin)] = rng.standard_normal(
        (dom.nx - 2 * margin + 2, dom.ny - 2 * margin + 2)
    )[1:-1, 1:-1]
    interior = ext[2:-2, 2:-2].copy()
    return ext, interior


def test_constant_odd_coefficient_assembles_to_zero():
    dom = RectDomain(16, 16)
    a = assemble_A(dom, np.full((18, 18), 0.7))
    assert a.nnz == 0
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((20, 20)).ravel()
    assert np.max(np.abs(a @ phi)) == 0.0


def test_odd_form_is_antisymmetric_for_interior_fields():
    # for variable coefficients the odd bilinear form psi . A(mu) phi
    # changes sign under swapping the arguments whenever both fields
    # vanish near the boundary (no boundary terms in the discrete
    # integration by parts)
    dom = RectDomain(20, 20)
    xm, ym = dom.mid_coords()
    mu = 0.8 + 0.5 * np.sin(2.0 * np.pi * xm) * np.cos(np.pi * ym)
    a = assemble_A(dom, mu)
    phi_ext, phi_int = _margin_fields(dom, seed=1)
    psi_ext, psi_int = _margin_fields(dom, seed=2)
    f1 = float(psi_int.ravel() @ (a @ phi_ext.ravel()))
    f2 = float(phi_int.ravel() @ (a @ psi_ext.ravel()))
    scale = max(abs(f1), abs(f2), 1.0)
    assert abs(f1 + f2) / scale < 1e-10
    assert abs(f1) > 1e-3  # the form itself is not trivially zero


def test_even_form_is_symmetric_for_interior_fields():
    dom = RectDomain(20, 20)
    xm, ym = dom.mid_coords()
    mu = 1.0 + 0.4 * np.cos(2.0 * np.pi * (xm + ym))
    ell = assemble_L(dom, mu)
    phi_ext, phi_int = _margin_fields(dom, seed=3)
    psi_ext, psi_int = _margin_fields(dom, seed=4)
    f1 = float(psi_int.ravel() @ (ell @ phi_ext.ravel()))
    f2 = float(phi_int.ravel() @ (ell @ psi_ext.ravel()))
    assert abs(f1 - f2) / max(abs(f1), 1.0) < 1e-10


def test_stencil_application_equals_assembled_operator():
    # the chord defect applies L[mu_e] + A[mu_o] by stencils; it must be
    # the assembled matrix's product, ghost ring included, and keep the
    # constant-coefficient cancellation of A to rounding
    dom = RectDomain(15, 23, 1.0, 1.5)
    rng = np.random.default_rng(14)
    me = 1.0 + 0.5 * rng.random((17, 25))
    mo = rng.standard_normal((17, 25))
    phi_ext = rng.standard_normal((19, 27))
    image = _apply_operator(dom, me, mo, phi_ext)
    assembled = (assemble_L(dom, me) + assemble_A(dom, mo)) @ phi_ext.ravel()
    assert image.shape == (15, 23)
    scale = np.max(np.abs(assembled))
    assert np.max(np.abs(image.ravel() - assembled)) <= 1e-12 * scale
    # each operator alone, with the other coefficient zero
    zero = np.zeros_like(me)
    for mat, applied in ((assemble_L(dom, me), _apply_operator(dom, me, zero, phi_ext)),
                         (assemble_A(dom, mo), _apply_operator(dom, zero, mo, phi_ext))):
        assembled = mat @ phi_ext.ravel()
        assert np.max(np.abs(applied.ravel() - assembled)) <= 1e-12 * np.max(np.abs(assembled))
    odd = _apply_operator(dom, zero, np.full_like(mo, 0.7), phi_ext)
    even = _apply_operator(dom, me, zero, phi_ext)
    assert np.max(np.abs(odd)) <= 1e-12 * np.max(np.abs(even))


def test_assembled_operator_consistency_against_sympy():
    # apply L[mu_e] + A[mu_o] to the sampled manufactured stream function
    # and compare with the exact symbolic image: second order in h
    phi_fn, _, _, rhs_fn = _mms.build()
    law, eta = _mms.law(), _mms.eta()
    errs = []
    for nx in (31, 63):
        dom = RectDomain(nx, nx)
        xe, ye = dom.ext_coords()
        xm, ym = dom.mid_coords()
        rho = eta(phi_fn(xm, ym))
        op = assemble_L(dom, law.mu_e(rho)) + assemble_A(dom, law.mu_o(rho))
        img = (op @ phi_fn(xe, ye).ravel()).reshape(nx, nx)
        exact = rhs_fn(xm, ym)[1:-1, 1:-1]
        errs.append(np.max(np.abs(img - exact)))
    assert np.log2(errs[0] / errs[1]) > 1.7


def test_nonlinear_rhs_against_sympy():
    phi_fn, f1_fn, f2_fn, rhs_fn = _mms.build()
    eta = _mms.eta()
    errs = []
    for nx in (31, 63):
        dom = RectDomain(nx, nx)
        xe, ye = dom.ext_coords()
        xm, ym = dom.mid_coords()
        force1 = f1_fn(xm, ym) + np.zeros_like(xm)
        force2 = f2_fn(xm, ym) + np.zeros_like(xm)
        rhs = nonlinear_rhs(dom, phi_fn(xe, ye), eta, force1, force2)
        # by construction conv - curl f equals the viscous image
        exact = rhs_fn(xm, ym)[1:-1, 1:-1]
        errs.append(np.max(np.abs(rhs - exact)))
    assert np.log2(errs[0] / errs[1]) > 1.7


def test_ellipticity_bounds():
    law = _mms.law()
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.5, 1.5, 40)
    xi = rng.standard_normal((60, 4))
    rep = ellipticity_check(law, rho, xi)
    assert rep["rayleigh_min"] >= rep["lower_bound"] - 1e-12
    assert rep["rayleigh_max"] <= rep["upper_bound"] + 1e-12
    assert rep["odd_form_max"] <= 1e-12


def _ellipticity_by_sample(law, rho_samples, xi_samples):
    """The report's two forms evaluated one (rho, xi) pair at a time."""
    rq, odd = [], [0.0]
    for rho in rho_samples:
        me = float(law.mu_e(np.array([rho]))[0])
        mo = float(law.mu_o(np.array([rho]))[0])
        c = me - law.mu_star / 2.0
        for x11, x22, x12, x21 in (map(float, xi) for xi in xi_samples):
            nsq = x11**2 + x22**2 + x12**2 + x21**2
            qe = (me * x11**2 + me * x22**2 - 2.0 * c * x11 * x22
                  + 2.0 * c * x12**2 + 2.0 * me * x21**2)
            odd.append(abs(mo * (x22 * x12 + x22 * x21 - x12 * x22 - x21 * x22
                                 - x11 * x12 - x11 * x21 + x12 * x11 + x21 * x11)))
            if nsq > 0:
                rq.append(qe / nsq)
    return min(rq, default=np.inf), max(rq, default=-np.inf), max(odd)


@pytest.mark.parametrize("n_rho, n_xi", [(1, 7), (13, 2), (120, 40)])
def test_ellipticity_check_equals_the_pairwise_forms(n_rho, n_xi):
    law = make_law("affine:0.75,0.5", "prop:0.5", 0.5, 2.0, DensityBounds(0.5, 1.5))
    rng = np.random.default_rng(n_rho)
    rho = rng.uniform(0.5, 1.5, n_rho)
    xi = rng.standard_normal((n_xi, 4))
    xi[0] = 0.0     # no quotient, but it still counts for the odd form
    rep = ellipticity_check(law, rho, xi)
    assert (rep["rayleigh_min"], rep["rayleigh_max"], rep["odd_form_max"]) == \
        _ellipticity_by_sample(law, rho, xi)


def test_ellipticity_check_squares_as_python_floats_do():
    # entries whose pow(x, 2) and x * x round apart: the report squares
    # with pow, so it keeps the value a scalar evaluation gives
    law = make_law("affine:0.75,0.5", "prop:0.5", 0.5, 2.0, DensityBounds(0.5, 1.5))
    x = np.random.default_rng(0).standard_normal(20_000)
    xi = x[[float(v) ** 2 != v * v for v in x]][:8].reshape(2, 4)
    rep = ellipticity_check(law, [1.1], xi)
    assert (rep["rayleigh_min"], rep["rayleigh_max"], rep["odd_form_max"]) == \
        _ellipticity_by_sample(law, [1.1], xi)


def test_ellipticity_check_without_a_nonzero_xi_or_with_a_nan_density():
    law = _mms.law()
    rep = ellipticity_check(law, [0.7, 1.2], np.zeros((3, 4)))
    assert (rep["rayleigh_min"], rep["rayleigh_max"], rep["odd_form_max"]) == \
        (np.inf, -np.inf, 0.0)
    # a nan coefficient reaches the report instead of being skipped
    rep = ellipticity_check(law, [0.7, np.nan], np.ones((2, 4)))
    assert np.isnan(rep["rayleigh_min"]) and np.isnan(rep["rayleigh_max"])


# ----------------------------------------------------------- boundary data

def test_boundary_data_tangential_field():
    # perp-grad of psi = sin(pi x) sin(pi y): the normal component of g
    # vanishes pointwise on the whole boundary, so phi0 is the constant
    # c0 and phi1 is the tangential trace g.tau
    dom = RectDomain(16, 16)
    g = lambda x, y: (
        -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
    )
    bd = boundary_data_from_g(dom, g, c0=1.0)
    xb = np.arange(18) * dom.h
    assert np.allclose(bd.phi1_bottom, -np.pi * np.sin(np.pi * xb))
    assert np.allclose(bd.phi1_top, -np.pi * np.sin(np.pi * xb))
    assert np.allclose(bd.phi1_left, -np.pi * np.sin(np.pi * xb))
    ring = np.concatenate([bd.phi0[0], bd.phi0[-1], bd.phi0[:, 0], bd.phi0[:, -1]])
    assert np.allclose(ring, 1.0)


def test_boundary_data_corners_belong_to_one_side():
    # tangential speeds 1, 2, 3, 4 on the bottom, right, top and left
    # sides; each corner belongs to the side that owns it in the
    # counterclockwise walk, at every size (at n = 48 and 97, (n + 1) * h
    # is not 1, and g saw the corners (0, 1) and (1, 1) off the top and
    # right sides)
    def g(x, y):
        if y == 0.0:
            return (1.0, 0.0)
        if x == 1.0:
            return (0.0, 2.0)
        return (-3.0, 0.0) if y == 1.0 else (0.0, -4.0)

    for n in (46, 48, 50, 97):
        bd = boundary_data_from_g(RectDomain(n, n), g)
        assert (bd.phi1_left[-1], bd.phi1_top[-1]) == (0.0, 0.0)
        assert (bd.phi1_right[-1], bd.phi1_bottom[-1]) == (2.0, 1.0)


def test_boundary_data_rejects_net_flux():
    dom = RectDomain(16, 16)
    g = lambda x, y: (2.0 * x - 1.0, 2.0 * y - 1.0)  # g.n = 1 on all sides
    with pytest.raises(ValueError, match="flux"):
        boundary_data_from_g(dom, g)


def test_clamped_embedding_ghost_convention():
    dom = RectDomain(8, 8)
    bd = homogeneous_boundary(dom)
    bd.phi1_left[:] = 2.0
    emb, shift = clamped_embedding(dom, bd)
    rng = np.random.default_rng(6)
    phi_int = rng.standard_normal(64)
    ext = (emb @ phi_int + shift).reshape(12, 12)
    assert np.allclose(ext[1, :], 0.0)  # boundary ring carries phi0 = 0
    # left ghost column mirrors the first interior column shifted by
    # 2 h phi1 (outward-normal derivative convention)
    assert np.allclose(ext[0, 1:-1], ext[2, 1:-1] + 2.0 * dom.h * 2.0)


def _clamped_embedding_loop(domain, bdry):
    """`clamped_embedding` written node by node, its oracle.

    Returns (E, e) with phi_ext = E phi_int + e: boundary nodes carry
    phi0, ghost nodes are mirror images shifted by 2 h phi1 (outward
    normal derivative), corner ghosts combine both reflections.
    """
    nx, ny, h = domain.nx, domain.ny, domain.h
    n_ext = (nx + 4) * (ny + 4)

    def ext_idx(i, j):                      # i, j are positions -1..n+2
        return (i + 1) * (ny + 4) + (j + 1)

    def int_idx(i, j):                      # i in 1..nx, j in 1..ny
        return (i - 1) * ny + (j - 1)

    e = np.zeros(n_ext)
    rows, cols, vals = [], [], []

    def add(r, i, j, w):
        """Accumulate w * phi(i, j) (mid-grid node) into extended row r."""
        if 1 <= i <= nx and 1 <= j <= ny:
            rows.append(r)
            cols.append(int_idx(i, j))
            vals.append(w)
        else:
            e[r] += w * bdry.phi0[i, j]

    for i in range(1, nx + 1):
        for j in range(1, ny + 1):
            add(ext_idx(i, j), i, j, 1.0)
    for i in range(nx + 2):                 # boundary ring
        e[ext_idx(i, 0)] = bdry.phi0[i, 0]
        e[ext_idx(i, ny + 1)] = bdry.phi0[i, ny + 1]
    for j in range(ny + 2):
        e[ext_idx(0, j)] = bdry.phi0[0, j]
        e[ext_idx(nx + 1, j)] = bdry.phi0[nx + 1, j]
    for j in range(ny + 2):                 # side ghosts: mirror + 2h phi1
        r = ext_idx(-1, j)
        add(r, 1, j, 1.0)
        e[r] += 2.0 * h * bdry.phi1_left[j]
        r = ext_idx(nx + 2, j)
        add(r, nx, j, 1.0)
        e[r] += 2.0 * h * bdry.phi1_right[j]
    for i in range(nx + 2):
        r = ext_idx(i, -1)
        add(r, i, 1, 1.0)
        e[r] += 2.0 * h * bdry.phi1_bottom[i]
        r = ext_idx(i, ny + 2)
        add(r, i, 1 + ny - 1, 1.0)
        e[r] += 2.0 * h * bdry.phi1_top[i]
    corners = [
        (-1, -1, 1, 1, bdry.phi1_left[0], bdry.phi1_bottom[0]),
        (nx + 2, -1, nx, 1, bdry.phi1_right[0], bdry.phi1_bottom[nx + 1]),
        (-1, ny + 2, 1, ny, bdry.phi1_left[ny + 1], bdry.phi1_top[0]),
        (nx + 2, ny + 2, nx, ny, bdry.phi1_right[ny + 1], bdry.phi1_top[nx + 1]),
    ]
    for gi, gj, mi, mj, p1a, p1b in corners:
        r = ext_idx(gi, gj)
        add(r, mi, mj, 1.0)
        e[r] += 2.0 * h * (p1a + p1b)

    emat = sp.csr_matrix((vals, (rows, cols)), shape=(n_ext, nx * ny))
    return emat, e


def test_clamped_embedding_equals_the_loop():
    rng = np.random.default_rng(8)
    for nx, ny in ((8, 8), (15, 31), (63, 63)):
        dom = RectDomain(nx, ny, 1.0, (ny + 1) / (nx + 1))
        bd = BoundaryData(rng.standard_normal((nx + 2, ny + 2)),
                          rng.standard_normal(ny + 2), rng.standard_normal(ny + 2),
                          rng.standard_normal(nx + 2), rng.standard_normal(nx + 2))
        emb, shift = clamped_embedding(dom, bd)
        want_emb, want_shift = _clamped_embedding_loop(dom, bd)
        assert np.array_equal(emb.toarray(), want_emb.toarray())
        assert np.array_equal(shift, want_shift)


# ------------------------------------------------------------------ solver

def test_picard_zero_problem_converges_immediately():
    dom = RectDomain(10, 10)
    z = np.zeros((12, 12))
    prob = StationaryProblem(dom, _mms.law(), _mms.eta(), z, z,
                             homogeneous_boundary(dom))
    sol = picard_solve(prob)
    assert sol.iterations == 1
    assert np.max(np.abs(sol.phi)) == 0.0


def test_picard_rejects_bad_damping_and_reports_failure():
    prob, _ = _mms.problem(15)
    with pytest.raises(ValueError):
        picard_solve(prob, damping=0.0)
    with pytest.raises(PicardError) as exc:
        picard_solve(prob, max_iter=1)
    assert exc.value.last_update > 0.0


@pytest.mark.parametrize("kwargs", [dict(tol=np.nan), dict(tol=np.inf), dict(max_iter=0)],
                         ids=["tol-nan", "tol-inf", "max_iter-0"])
def test_picard_rejects_bad_tol_and_max_iter_before_any_work(monkeypatch, kwargs):
    # a nan tol never converges, an infinite one always does, and no
    # iteration leaves no update to report
    prob, _ = _mms.problem(15)

    def no_work(*args):
        raise AssertionError("picard_solve started work")

    monkeypatch.setattr(stationary, "_boundary_shift", no_work)
    with pytest.raises(ValueError):
        picard_solve(prob, **kwargs)
    # positive control: a valid call does reach the patched function, so
    # the check above would catch work that started before the validation
    with pytest.raises(AssertionError, match="started work"):
        picard_solve(prob)


def test_picard_matches_tightened_damped_solve():
    # the fixed point does not depend on the mixing factor: the default
    # (1.0) solve agrees with a 0.7 one run to a thousandfold tighter tol
    prob, _ = _mms.problem(15)
    ref = picard_solve(prob, damping=0.7, tol=1e-12, max_iter=400)
    sol = picard_solve(prob)
    assert np.max(np.abs(sol.phi - ref.phi)) < 1e-8


def test_manufactured_solve_takes_few_iterations():
    # the damped iteration took 16; Anderson-mixed chord takes 7
    _, sol = _mms.solve_error(31)
    assert sol.iterations <= 8
    assert sol.update_history[-1] <= 1e-9


def _wall_driven(speed, law, eta):
    """16^2 problem on the unit square with tangential wall speed `speed`
    on every side and no force."""
    dom = RectDomain(16, 16)
    z = np.zeros((18, 18))

    def g(x, y):
        if y == 0.0:
            return (speed, 0.0)
        if x == 1.0:
            return (0.0, speed)
        return (-speed, 0.0) if y == 1.0 else (0.0, -speed)

    return StationaryProblem(dom, law, eta, z, z, boundary_data_from_g(dom, g))


def _count_calls(monkeypatch, name, module=stationary):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _channel(n, law, s, eta):
    """n^2 channel flow g = (4 s y (1 - y), 0): its normal inflow varies
    phi0 and the density, so the first map has variable coefficients."""
    dom = RectDomain(n, n)
    z = np.zeros((n + 2, n + 2))
    bdry = boundary_data_from_g(dom, lambda x, y: (4.0 * s * y * (1.0 - y), 0.0))
    return StationaryProblem(dom, law, eta, z, z, bdry)


def _first_map_problems():
    """Problems whose first map phi = 0 has constant coefficients (the
    manufactured one and tangential wall flows), and one whose first map
    varies: a channel flow."""
    law = make_law("affine:0.75,0.5", "prop:0.5", 0.5, 2.0, DensityBounds(0.5, 1.5))
    eta = eta_affine(1.0, 0.05, 2.0)
    constant = [_mms.problem(31)[0]] + [_wall_driven(speed, law, eta)
                                        for speed in (5.0, 20.0, 50.0)]
    return constant, _channel(16, law, 1.0, eta)


def test_solve_factorizes_exactly_once(monkeypatch):
    # the chord map sets up the DST-I capacitance solver once, at the
    # first map, constant or variable, and never calls SuperLU
    constant, channel = _first_map_problems()
    fast = _count_calls(monkeypatch, "_clamped_biharmonic_solver")
    factorizations = _count_calls(monkeypatch, "splu", scipy.sparse.linalg)
    solves = _count_calls(monkeypatch, "spsolve", scipy.sparse.linalg)
    for prob in constant + [channel]:
        fast.clear()
        sol = picard_solve(prob)
        assert len(fast) == 1 and factorizations == [] and solves == []
        assert sol.update_history[-1] <= 1e-9


def test_solve_assembles_exactly_once(monkeypatch):
    # no first map assembles a matrix: every defect and every GMRES step
    # applies the operator by stencils
    constant, channel = _first_map_problems()
    assembled = [_count_calls(monkeypatch, name)
                 for name in ("assemble_L", "assemble_A", "clamped_embedding")]
    for prob in constant + [channel]:
        sol = picard_solve(prob)
        assert assembled == [[], [], []]
        assert sol.update_history[-1] <= 1e-9


@pytest.mark.parametrize("nx, ny, lx, ly", [(15, 15, 1.0, 1.0), (31, 31, 1.0, 1.0),
                                            (15, 31, 0.5, 1.0)])
def test_constant_chord_solver_matches_superlu(nx, ny, lx, ly):
    # the DST-I capacitance solve of (L[mu] + A[mu_o]) E, constant mu and
    # mu_o, against SuperLU of the assembled matrix
    dom = RectDomain(nx, ny, lx, ly)
    emb, _ = clamped_embedding(dom, homogeneous_boundary(dom))
    ones = np.ones((nx + 2, ny + 2))
    b = np.random.default_rng(nx + ny).standard_normal(nx * ny)
    for mu in (1.25, 0.6):
        lu = splu((assemble_L(dom, mu * ones) @ emb).tocsc())
        want = lu.solve(b)
        got = stationary._chord_solver(dom, mu * ones, -0.3 * ones)(b)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_singular_or_non_finite_chord_is_refused():
    # a zero viscosity stops the fast path before it divides by it; a
    # non-finite map is refused before any solve
    dom = RectDomain(12, 12)
    zero = np.zeros((14, 14))
    with pytest.raises(RuntimeError, match="constant viscosity 0"):
        stationary._chord_solver(dom, zero, zero)
    for bad in (np.nan, np.inf):
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="not finite"):
            stationary._chord_solver(dom, np.full((14, 14), bad), zero)


def _superlu_chord(domain, mu_e, mu_o):
    """The chord's frozen operator (L[mu_e] + A[mu_o]) E assembled and
    factorized by SuperLU: the oracle of the matrix-free chord."""
    emb, _ = clamped_embedding(domain, homogeneous_boundary(domain))
    mat = (assemble_L(domain, mu_e) + assemble_A(domain, mu_o)) @ emb
    return scipy.sparse.linalg.splu(mat.tocsc()).solve


def test_fast_and_sparse_chords_take_the_same_maps(monkeypatch):
    # the fast solve preconditions with the same matrix as the sparse LU,
    # to rounding: the same maps and the same solution
    prob, _ = _mms.problem(31)
    fast = picard_solve(prob)
    monkeypatch.setattr(stationary, "_chord_solver", _superlu_chord)
    factorizations = _count_calls(monkeypatch, "splu", scipy.sparse.linalg)
    sparse = picard_solve(prob)
    assert len(factorizations) == 1
    assert fast.iterations == sparse.iterations == 7
    assert len(fast.update_history) == len(sparse.update_history)
    assert np.linalg.norm(fast.phi - sparse.phi) <= 1e-12 * np.linalg.norm(sparse.phi)


def test_matrix_free_chord_matches_superlu_on_channel_flows(monkeypatch):
    # GMRES stops at a relative residual of 1e-2, so the maps may differ
    # from those of the exact chord by a few; the fixed point may not
    bounds, eta = DensityBounds(0.5, 1.5), eta_affine(1.0, 0.3, 2.0)
    for n in (16, 31):
        for laws in (("affine:0.75,0.5", "prop:0.5"), ("affine:0.5,1", "prop:1")):
            for s in (1.0, 5.0):
                prob = _channel(n, make_law(*laws, 0.5, 2.0, bounds), s, eta)
                got = picard_solve(prob, max_iter=200)
                with monkeypatch.context() as m:
                    m.setattr(stationary, "_chord_solver", _superlu_chord)
                    want = picard_solve(prob, max_iter=200)
                assert got.iterations <= want.iterations + 2
                assert np.linalg.norm(got.phi - want.phi) <= 1e-8 * np.linalg.norm(want.phi)


def test_gmres_at_its_cap_names_the_iteration(monkeypatch):
    # a chord solve that GMRES cannot finish stops the iteration with a
    # PicardError that says in which map, and with which last update; three
    # GMRES steps do for the first maps of this flow but not for all
    law = make_law("affine:0.5,1", "prop:1", 0.5, 2.0, DensityBounds(0.5, 1.5))
    monkeypatch.setattr(stationary, "_GMRES_MAX_ITER", 3)
    with pytest.raises(PicardError, match="GMRES .* after 3 iterations") as exc:
        picard_solve(_channel(16, law, 5.0, eta_affine(1.0, 0.3, 2.0)))
    found = re.search(r"chord solve failed in iteration (\d+)", str(exc.value))
    last = exc.value.last_update
    assert found and int(found.group(1)) > 1 and np.isfinite(last)
    assert f"(last update {last:.3e})" in str(exc.value)


def test_singular_factorization_is_a_picard_error():
    # nu_e(r) = r at density 0 is the constant viscosity 0: the fast
    # path refuses it before it divides by it, and the solver reports
    # where it stopped
    dom = RectDomain(12, 12)
    law = make_law("affine:0,1", "const:0.0", 0.5, 2.0, DensityBounds(0.5, 1.5))
    z = np.zeros((14, 14))
    prob = StationaryProblem(dom, law, eta_affine(0.0, 0.0, 2.0), z, z,
                             homogeneous_boundary(dom))
    with pytest.raises(PicardError, match="factorization failed in iteration 1") as exc:
        picard_solve(prob)
    assert exc.value.last_update == np.inf


def test_non_elliptic_first_map_is_a_picard_error_in_iteration_1():
    # nu_e = -1 + 1.5 r maps the law's bounds [1, 2] into [0.5, 2], but
    # this channel flow's first density falls to about 0.6 along the top
    # wall, where nu_e < 0: the first map is not elliptic, and the solve
    # stops in iteration 1 and names that cause, not a later GMRES cap
    # or overflow
    law = make_law("affine:-1,1.5", "prop:0.5", 0.5, 2.0, DensityBounds(1.0, 2.0))
    prob = _channel(16, law, 2.0, eta_affine(1.0, 0.3, 2.0))
    with pytest.raises(PicardError, match="failed in iteration 1: min mu_e -") as exc:
        picard_solve(prob, max_iter=200)
    assert exc.value.last_update == np.inf


def test_diverging_iteration_is_never_reported_converged():
    # constant viscosity 1 and density 1 with tangential wall speeds of
    # 200 and more on 16^2: the iterates grow past 1e20 and an Anderson
    # step can cancel to zero in rounding; that must not count as
    # convergence, because the map residual is still huge
    dom = RectDomain(16, 16)
    bounds = DensityBounds(0.5, 1.5)
    law = make_law("const:1.0", "const:0.0", 0.5, 2.0, bounds)
    z = np.zeros((18, 18))
    for speed in (200.0, 500.0, 1e4):
        def g(x, y):
            if y == 0.0:
                return (speed, 0.0)
            if x == 1.0:
                return (0.0, speed)
            return (-speed, 0.0) if y == 1.0 else (0.0, -speed)

        prob = StationaryProblem(dom, law, eta_affine(1.0, 0.0, 2.0), z, z,
                                 boundary_data_from_g(dom, g))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PicardError):
            picard_solve(prob)


def test_manufactured_solution_second_order():
    errs = [_mms.solve_error(nx)[0] for nx in (15, 31)]
    order = np.log2(errs[0] / errs[1])
    assert order > 1.7


def recover_velocity(sol):
    """(rho, u) = (eta(phi), perp-grad phi) together with div u interior max."""
    h = sol.domain.h
    div = (
        (sol.u1[2:, 1:-1] - sol.u1[:-2, 1:-1])
        + (sol.u2[1:-1, 2:] - sol.u2[1:-1, :-2])
    ) / (2.0 * h)
    return sol.rho, (sol.u1, sol.u2), float(np.max(np.abs(div)))


def test_recovered_velocity_is_divergence_free():
    _, sol = _mms.solve_error(15)
    rho, (u1, u2), divmax = recover_velocity(sol)
    assert divmax < 1e-10
    assert rho.min() >= 0.99  # eta = 1 + phi with phi >= 0


def test_weak_residual_shrinks_under_refinement():
    phi_fn, _, _, _ = _mms.build()
    res = []
    for nx in (15, 31):
        prob, _ = _mms.problem(nx)
        err, sol = _mms.solve_error(nx)
        xm, ym = prob.domain.mid_coords()
        # polynomial bump test functions with clamped support
        psis = [
            (xm * (1 - xm) * ym * (1 - ym)) ** 2,
            (xm * (1 - xm)) ** 2 * (ym * (1 - ym)) ** 3,
        ]
        res.append(residual_weak_stationary(sol, prob, psis))
    # the boundary-layer quadrature of the midpoint rule limits the weak
    # defect to first order; it must at least halve per refinement
    assert res[0] / res[1] > 1.8


def test_weak_residual_rejects_nonvanishing_tests():
    prob, _ = _mms.problem(15)
    _, sol = _mms.solve_error(15)
    bad = np.ones((17, 17))
    with pytest.raises(ValueError):
        residual_weak_stationary(sol, prob, [bad])
