"""Acceptance gate: the twelve headline properties at their stated
tolerances.  Each test prints a single pass/fail line (visible with -s or
in the captured output) and asserts the same condition."""

import numpy as np
import pytest

import _mms
from oddflow.evolve import EvolveConfig, InitialData, odd_limit_sweep, run
from oddflow.fields import (
    Grid2D,
    ScalarField,
    VectorField,
    curl2d,
    grad,
    norms,
    random_divfree_field,
    random_scalar_field,
)
from oddflow.stationary import RectDomain, assemble_A
from oddflow.symmetric import (
    ConcentricProblem,
    ParallelProblem,
    RadialProblem,
    radial_nonexistence_demo,
    solve_concentric,
    solve_parallel,
    solve_radial,
)
from oddflow.viscosity import (
    DensityBounds,
    check_pointwise_cancellation,
    check_weak_cancellation,
    make_law,
    strain_odd,
    strain_sym,
)

BOUNDS = DensityBounds(0.5, 1.5)


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def variable_law(nu_o="prop:0.5"):
    return make_law("affine:0.75,0.5", nu_o, 0.5, 2.0, BOUNDS)


def perturbed_density(grid, seed):
    pert = random_scalar_field(grid, seed, 3)
    return ScalarField(grid, 1.0 + 0.45 * pert.values)


def standard_data(grid):
    return InitialData(perturbed_density(grid, seed=1),
                       random_divfree_field(grid, seed=2, cutoff=4))


# Energy ledgers of every evolutionary acceptance run; criterion 12 reads
# their per-step density records.
_LEDGERS = {}


# --------------------------------------------------------------- criteria

def test_criterion_01_pointwise_cancellation():
    grid = Grid2D(64, 64)
    worst = 0.0
    for k in range(100):
        u = random_divfree_field(grid, seed=1000 + k, cutoff=8)
        gn = max(
            norms(c)["linf"]
            for f in (u.comp1, u.comp2)
            for c in [grad(ScalarField(grid, f))]
            for c in (ScalarField(grid, c.comp1), ScalarField(grid, c.comp2))
        )
        worst = max(worst, check_pointwise_cancellation(u) / gn**2)
    report(1, "pointwise-cancellation", worst <= 1e-12, f"max {worst:.3e}")


def test_criterion_02_weak_cancellation():
    grid = Grid2D(64, 64)
    worst = 0.0
    for k in range(100):
        u = random_divfree_field(grid, seed=2000 + k, cutoff=8)
        phi = random_divfree_field(grid, seed=3000 + k, cutoff=8)
        so, ss = strain_odd(u), strain_sym(phi)
        area = grid.cell_area
        scale = np.sqrt(
            np.sum(so.t11**2 + so.t12**2 + so.t21**2 + so.t22**2) * area
        ) * np.sqrt(
            np.sum(ss.t11**2 + ss.t12**2 + ss.t21**2 + ss.t22**2) * area
        )
        worst = max(worst, check_weak_cancellation(u, phi) / scale)
    report(2, "weak-cancellation", worst <= 1e-10, f"max {worst:.3e}")


def test_criterion_03_ellipticity_bounds(tmp_path):
    from oddflow.stationary import ellipticity_check

    table = tmp_path / "law.txt"
    np.savetxt(table, np.array([[0.5, 0.8], [1.5, 1.6]]))
    laws = [
        make_law("const:1.0", "const:0.5", 0.5, 2.0, BOUNDS),
        make_law("affine:0.75,0.5", "prop:0.5", 0.5, 2.0, BOUNDS),
        make_law("prop:1.0", "affine:0.1,0.2", 0.5, 2.0, BOUNDS),
        make_law(f"table:{table}", "const:-0.5", 0.5, 2.0, BOUNDS),
    ]
    rng = np.random.default_rng(3)
    worst = 0.0
    in_bounds = True
    for law in laws:
        rep = ellipticity_check(law, rng.uniform(0.5, 1.5, 32),
                                rng.standard_normal((32, 4)))
        in_bounds &= rep["rayleigh_min"] >= rep["lower_bound"] - 1e-12
        in_bounds &= rep["rayleigh_max"] <= rep["upper_bound"] + 1e-12
        worst = max(worst, rep["odd_form_max"])
    report(3, "ellipticity-bounds", in_bounds and worst <= 1e-12,
           f"odd form max {worst:.3e}, even form in bounds: {in_bounds}")


def test_criterion_04_energy_inequality():
    grid = Grid2D(64, 64)
    data = standard_data(grid)
    defects = []
    slack_ok = True
    for dt in (6e-4, 3e-4):
        config = EvolveConfig(grid, dt, 1.0, variable_law(), BOUNDS)
        _, ledger = run(config, data)
        _LEDGERS[f"energy-dt{dt:g}"] = ledger
        kinetic, dissipation = ledger.kinetic, ledger.dissipation
        e0 = kinetic[0]
        slack_ok &= bool(np.all(np.diff(kinetic) <= 1e-6 * e0))
        defects.append(abs(kinetic[-1] + dissipation[-1] - e0))
    halves = defects[1] <= 0.65 * defects[0]
    report(4, "energy-inequality", slack_ok and halves,
           f"monotone: {slack_ok}, defects {defects[0]:.3e} -> {defects[1]:.3e}")


def test_criterion_05_constant_odd_neutrality():
    grid = Grid2D(64, 64)
    data = standard_data(grid)
    finals = []
    for c, nu_o in ((0.0, "const:0.0"), (0.5, "const:0.5")):
        config = EvolveConfig(grid, 6e-4, 1.0, variable_law(nu_o), BOUNDS)
        states, _LEDGERS[f"neutrality-c{c:g}"] = run(config, data)
        finals.append(states[-1])
    a, b = finals
    du = norms(VectorField(grid, a.u.comp1 - b.u.comp1,
                           a.u.comp2 - b.u.comp2))["l2"]
    # the constant odd stress divergence is -nu_o grad(omega): the run
    # without it carries the extra pressure +nu_o omega
    dp = a.pressure.values - b.pressure.values
    defect = dp - 0.5 * curl2d(a.u).values
    defect = np.max(np.abs(defect - np.mean(defect)))
    report(5, "constant-odd-neutrality", du <= 1e-8 and defect <= 1e-6,
           f"velocity L2 {du:.3e}, pressure defect {defect:.3e}")


def test_criterion_06_odd_viscosity_limit():
    grid = Grid2D(64, 64)
    c0 = 0.5
    law = make_law("affine:0.75,0.5", f"const:{c0}", 0.5, 2.0, BOUNDS)
    config = EvolveConfig(grid, 6e-4, 1.0, law, BOUNDS)
    rows = odd_limit_sweep(config, standard_data(grid),
                           [0.4, 0.2, 0.1, 0.05], c0)
    dists = [d for _, d in rows]
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    report(6, "odd-viscosity-limit", decreasing,
           "L2 distances " + ", ".join(f"{d:.3e}" for d in dists))


def test_criterion_07_taylor_green_regression():
    grid = Grid2D(64, 64)
    x1, x2 = grid.coords()
    bounds = DensityBounds(0.9, 1.1)
    law = make_law("const:1.0", "const:0.0", 0.5, 1.0, bounds)
    config = EvolveConfig(grid, 1e-3, 1.0, law, bounds)
    data = InitialData(
        ScalarField(grid, np.ones((64, 64))),
        VectorField(grid, np.sin(x1) * np.cos(x2), -np.cos(x1) * np.sin(x2)),
    )
    states, _LEDGERS["taylor-green"] = run(config, data)
    final = states[-1]
    amp = np.exp(-2.0 * final.t)
    err = max(
        np.max(np.abs(final.u.comp1 - amp * np.sin(x1) * np.cos(x2))),
        np.max(np.abs(final.u.comp2 + amp * np.cos(x1) * np.sin(x2))),
    ) / amp
    report(7, "taylor-green-regression", err <= 1e-5, f"relative error {err:.3e}")


def test_criterion_08_stationary_manufactured_order():
    errs = [_mms.solve_error(nx)[0] for nx in (31, 63)]  # h = 1/32, 1/64
    order = float(np.log2(errs[0] / errs[1]))
    report(8, "stationary-mms-order", order >= 1.8, f"observed order {order:.3f}")


def test_criterion_09_a_operator_constant_vanishing():
    dom = RectDomain(20, 20)
    a_const = assemble_A(dom, np.full((22, 22), 0.7))
    rng = np.random.default_rng(9)
    vanish = max(
        float(np.max(np.abs(a_const @ rng.standard_normal(24 * 24))))
        for _ in range(5)
    )
    # antisymmetry of the variable-coefficient odd form on fields
    # supported away from the boundary
    xm, ym = dom.mid_coords()
    mu = 0.8 + 0.5 * np.sin(2.0 * np.pi * xm) * np.cos(np.pi * ym)
    a_var = assemble_A(dom, mu)
    worst = 0.0
    for k in range(5):
        ext1 = np.zeros((24, 24))
        ext1[5:-5, 5:-5] = rng.standard_normal((14, 14))
        ext2 = np.zeros((24, 24))
        ext2[5:-5, 5:-5] = rng.standard_normal((14, 14))
        f1 = float(ext2[2:-2, 2:-2].ravel() @ (a_var @ ext1.ravel()))
        f2 = float(ext1[2:-2, 2:-2].ravel() @ (a_var @ ext2.ravel()))
        worst = max(worst, abs(f1 + f2) / max(abs(f1), abs(f2), 1.0))
    report(9, "a-operator-vanishing", vanish <= 1e-12 and worst <= 1e-10,
           f"constant image {vanish:.3e}, antisymmetry defect {worst:.3e}")


def test_criterion_10_symmetric_closed_forms():
    const_rho = lambda s: np.full_like(np.asarray(s, dtype=float), 1.0)
    law = make_law("const:1.0", "const:0.5", 0.5, 2.5, DensityBounds(0.5, 2.5))

    sol = solve_parallel(ParallelProblem(const_rho, law, 0.0, 0.0, 1.0, 0.0, 1.0))
    couette = float(np.max(np.abs(sol.profile - sol.nodes)))
    sol = solve_parallel(ParallelProblem(const_rho, law, -2.0, 0.0, 1.0, 0.0, 0.0))
    poiseuille = float(np.max(np.abs(sol.profile - sol.nodes * (1 - sol.nodes))))
    # C = 2 mu_e, C1 = 0 gives g'(r) = 1/r, so g = ln r from g(1) = 0
    sol = solve_concentric(ConcentricProblem(const_rho, law, 2.0, 0.0, 1.0, 2.0))
    logr = float(np.max(np.abs(sol.profile - np.log(sol.nodes))))

    sol = solve_radial(RadialProblem(const_rho, law, 5.0))
    root = float(np.max(np.abs(sol.profile - 1.0)))
    base = None
    invariance = 0.0
    for vo in ("const:-1.0", "const:0.0", "const:1.0"):
        lw = make_law("const:1.0", vo, 0.5, 2.5, DensityBounds(0.5, 2.5))
        h = solve_radial(RadialProblem(const_rho, lw, 5.0)).profile
        base = h if base is None else base
        invariance = max(invariance, float(np.max(np.abs(h - base))))

    ok = (max(couette, poiseuille, logr) <= 1e-8
          and root <= 1e-10 and invariance <= 1e-10)
    report(10, "symmetric-closed-forms", ok,
           f"profiles {couette:.1e}/{poiseuille:.1e}/{logr:.1e}, "
           f"root {root:.1e}, invariance {invariance:.1e}")


def test_criterion_11_radial_nonexistence():
    study = radial_nonexistence_demo(C=1.0, levels=(64, 128, 256, 512),
                                     mu_o_values=(1.0, 2.0))
    res = [row["residual"] for row in study]
    h1 = [row["h1_seminorm"] for row in study]
    stagnates = all(r >= 0.5 * res[0] for r in res)
    blows_up = all(b >= 2.0 * a for a, b in zip(h1[:-1], h1[1:]))
    rescue = radial_nonexistence_demo(C=1.0, levels=(128,), mu_e=0.1)
    solved = rescue[0]["residual"] <= 1e-10
    report(11, "radial-nonexistence", (stagnates or blows_up) and solved,
           f"residuals {', '.join(f'{r:.3f}' for r in res)}; "
           f"rescue residual {rescue[0]['residual']:.3e}")


def test_criterion_12_density_bound_preservation():
    if not _LEDGERS:  # standalone invocation: run one case
        grid = Grid2D(64, 64)
        config = EvolveConfig(grid, 6e-4, 1.0, variable_law(), BOUNDS)
        _, _LEDGERS["standalone"] = run(config, standard_data(grid))
    violation = 0.0
    drift = 0.0
    for led in _LEDGERS.values():
        # index 0 of each record is the initial density
        violation = max(violation, led.rho_min[0] - min(led.rho_min),
                        max(led.rho_max) - led.rho_max[0])
        drift = max(drift, max(abs(m - led.mass[0]) for m in led.mass)
                    / abs(led.mass[0]))
    report(12, "density-bound-preservation",
           violation <= 1e-14 and drift <= 1e-6,
           f"{len(_LEDGERS)} runs, worst bound violation "
           f"{violation:.3e}, worst mass drift {drift:.3e}")
