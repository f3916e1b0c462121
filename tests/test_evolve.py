import numpy as np
import pytest

from oddflow.evolve import (  # noqa: the weak-form test field gets an alias
    BlowUpError,
    EnergyLedger,
    EvolveConfig,
    InitialData,
    ProjectionError,
    TestField as WeakTestField,
    bump,
    odd_limit_sweep,
    residual_weak_momentum,
    run,
    solve_pressure,
    stable_dt,
)
from oddflow.fields import (
    Grid2D,
    ScalarField,
    VectorField,
    _irfft,
    _rfft,
    _rfft_inner,
    curl2d,
    divergence,
    grad,
    inv_laplacian,
    norms,
    random_divfree_field,
    random_scalar_field,
)
from oddflow.viscosity import DensityBounds, make_law


def taylor_green(grid, amp=1.0):
    x1, x2 = grid.coords()
    return VectorField(grid, amp * np.sin(x1) * np.cos(x2),
                       -amp * np.cos(x1) * np.sin(x2))


def unit_density(grid):
    return ScalarField(grid, np.ones((grid.n1, grid.n2)))


def perturbed_density(grid, seed, lo=0.5, hi=1.5):
    mid, amp = 0.5 * (lo + hi), 0.45 * (hi - lo)
    return ScalarField(grid, mid + amp * random_scalar_field(grid, seed, 3).values)


def make_config(grid, dt, t_end, nu_e="const:1.0", nu_o="const:0.0",
                lo=0.5, hi=1.5, mu_star=0.5, mu_upper=2.0):
    bounds = DensityBounds(lo, hi)
    law = make_law(nu_e, nu_o, mu_star, mu_upper, bounds)
    return EvolveConfig(grid, dt, t_end, law, bounds)


def test_config_validation():
    g = Grid2D(16, 16)
    with pytest.raises(ValueError):
        make_config(g, -0.1, 1.0)
    with pytest.raises(ValueError):
        EvolveConfig(g, 0.01, 1.0,
                     make_law("const:1.0", "const:0.0", 0.5, 2.0,
                              DensityBounds(0.5, 1.5)),
                     DensityBounds(0.5, 1.5), mode_cutoff=10)


def test_initial_data_validation():
    g = Grid2D(16, 16)
    bounds = DensityBounds(0.9, 1.1)
    x1, _ = g.coords()
    data = InitialData(ScalarField(g, np.full((16, 16), 2.0)), taylor_green(g))
    with pytest.raises(ValueError):
        data.validate(bounds)
    bad_u = VectorField(g, np.sin(x1), np.zeros((16, 16)))
    with pytest.raises(ValueError):
        InitialData(unit_density(g), bad_u).validate(bounds)


def test_stable_dt_respects_cfl_and_viscous_limits():
    g = Grid2D(32, 32)
    cfg = make_config(g, 1.0, 1.0)
    u = taylor_green(g, amp=4.0)
    dt = stable_dt(cfg, u)
    h = g.h1
    assert dt <= h * h / (8.0 * cfg.law.mu_upper) + 1e-15
    assert dt <= 0.5 * h / 4.0 + 1e-15


def test_zero_initial_data_stays_zero():
    g = Grid2D(16, 16)
    cfg = make_config(g, 0.01, 0.05, lo=0.9, hi=1.1)
    z = np.zeros((16, 16))
    data = InitialData(unit_density(g), VectorField(g, z, z))
    states, ledger = run(cfg, data)
    assert np.max(np.abs(states[-1].u.comp1)) == 0.0
    assert ledger.kinetic[-1] == 0.0
    assert ledger.balance_defect() == 0.0


def test_taylor_green_decay():
    # rho = 1, nu_o = 0: exact solution decays like e^(-2 nu t)
    g = Grid2D(32, 32)
    nu = 1.0
    cfg = make_config(g, 1e-3, 0.2, lo=0.9, hi=1.1, mu_star=0.5, mu_upper=2.0)
    data = InitialData(unit_density(g), taylor_green(g))
    states, _ = run(cfg, data)
    final = states[-1]
    exact = taylor_green(g, amp=np.exp(-2.0 * nu * final.t))
    err = max(
        np.max(np.abs(final.u.comp1 - exact.comp1)),
        np.max(np.abs(final.u.comp2 - exact.comp2)),
    )
    assert err < 1e-5 * np.exp(-2.0 * nu * final.t)


def test_constant_odd_viscosity_neutrality():
    # variable density, variable nu_e; switching nu_o between 0 and a
    # constant must leave the velocity path unchanged and shift the
    # pressure by nu_o * vorticity
    g = Grid2D(32, 32)
    data = InitialData(perturbed_density(g, seed=7),
                       random_divfree_field(g, seed=8, cutoff=4))
    finals = []
    for vo in ("const:0.0", "const:0.5"):
        cfg = make_config(g, 2e-3, 0.2, nu_e="affine:0.75,0.5", nu_o=vo)
        states, _ = run(cfg, data)
        finals.append(states[-1])
    a, b = finals
    du = VectorField(g, a.u.comp1 - b.u.comp1, a.u.comp2 - b.u.comp2)
    assert norms(du)["l2"] < 1e-9
    # the constant odd stress is the gradient -nu_o grad(omega), so the
    # run without it carries the extra pressure +nu_o omega
    dp = a.pressure.values - b.pressure.values
    target = 0.5 * curl2d(a.u).values
    defect = dp - target
    defect = defect - np.mean(defect)
    assert np.max(np.abs(defect)) < 1e-6


def test_energy_inequality_and_defect_halving():
    g = Grid2D(32, 32)
    data = InitialData(perturbed_density(g, seed=1),
                       random_divfree_field(g, seed=2, cutoff=4))
    defects = []
    for dt in (2e-3, 1e-3):  # both below the 32^2 viscous stability cap
        cfg = make_config(g, dt, 0.25, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
        _, ledger = run(cfg, data)
        e0 = ledger.kinetic[0]
        diffs = np.diff(ledger.kinetic)
        assert np.all(diffs <= 1e-6 * e0)
        defects.append(abs(ledger.balance_defect()))
    # first-order-in-dt energy balance defect: halving dt halves it
    assert defects[1] <= 0.65 * defects[0]


def test_density_bounds_and_mass_conservation():
    g = Grid2D(32, 32)
    rho0 = perturbed_density(g, seed=3)
    lo, hi = rho0.values.min(), rho0.values.max()
    cfg = make_config(g, 5e-3, 0.25, nu_o="prop:0.5")
    data = InitialData(rho0, random_divfree_field(g, seed=4, cutoff=4))
    states, _ = run(cfg, data, store_every=1)
    mass0 = np.sum(rho0.values) * g.cell_area
    for st in states:
        assert st.rho.values.min() >= lo - 1e-14
        assert st.rho.values.max() <= hi + 1e-14
    drift = abs(np.sum(states[-1].rho.values) * g.cell_area - mass0)
    assert drift <= 1e-6 * abs(mass0)


def test_weak_residual_shrinks_with_dt():
    g = Grid2D(32, 32)
    data = InitialData(perturbed_density(g, seed=5),
                       random_divfree_field(g, seed=6, cutoff=4))
    a, a_dot = bump(0.05, 0.45)
    tf = WeakTestField(random_divfree_field(g, seed=9, cutoff=4), a, a_dot)
    res = []
    for dt in (2e-3, 1e-3):
        cfg = make_config(g, dt, 0.5, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
        states, ledger = run(cfg, data, store_every=1)
        res.append(residual_weak_momentum(ledger.times, states, cfg, None, [tf]))
    assert res[1] < 0.6 * res[0]


def test_odd_limit_sweep_monotone():
    g = Grid2D(16, 16)
    cfg = make_config(g, 1e-2, 0.25)
    data = InitialData(perturbed_density(g, seed=10),
                       random_divfree_field(g, seed=11, cutoff=3))
    rows = odd_limit_sweep(cfg, data, [0.4, 0.1], c0=0.5)
    assert rows[0][1] > rows[1][1] > 0.0


def test_energy_ledger_defect_indexing():
    led = EnergyLedger([0.0, 1.0], [2.0, 1.5], [0.0, 0.4], [0.0, 0.0])
    assert led.balance_defect(0) == 0.0
    assert led.balance_defect() == pytest.approx(-0.1)


def test_half_spectrum_inner_product_is_parseval():
    g = Grid2D(16, 24)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 16, 24))
    scale = np.sqrt(np.sum(a * a) * np.sum(b * b))
    assert abs(_rfft_inner(g, _rfft(a), _rfft(b)) - np.sum(a * b)) < 1e-13 * scale
    assert _rfft_inner(g, _rfft(a), _rfft(a)) == pytest.approx(np.sum(a * a), rel=1e-13)


def pressure_problem(seed):
    g = Grid2D(32, 32)
    rho = perturbed_density(g, seed=seed).values
    # band-limited below n/3: no Nyquist content
    src = random_scalar_field(g, seed=seed + 1, cutoff=6).values
    return g, rho, src


def test_spectral_cg_constant_density_matches_inv_laplacian():
    g, _, src = pressure_problem(20)
    rho = np.full((g.n1, g.n2), 1.3)
    p = _irfft(g, solve_pressure(g, rho, _rfft(src), tol=1e-12))
    # div((1/rho) grad p) = src with rho constant: p = rho * lap^-1 src;
    # the two Laplacian symbols differ only on the Nyquist modes
    want = 1.3 * inv_laplacian(ScalarField(g, src)).values
    assert np.max(np.abs(p - want)) < 1e-12 * np.max(np.abs(want))


def test_spectral_cg_physical_residual_meets_tol():
    g, rho, src = pressure_problem(22)
    tol = 1e-10
    p = ScalarField(g, _irfft(g, solve_pressure(g, rho, _rfft(src), tol=tol)))
    gp = grad(p)
    lhs = divergence(VectorField(g, gp.comp1 / rho, gp.comp2 / rho)).values
    b = src - np.mean(src)
    assert np.sqrt(np.sum((lhs - b) ** 2)) <= tol * np.sqrt(np.sum(b * b))


def test_spectral_cg_iteration_cap_raises():
    g, rho, src = pressure_problem(24)
    with pytest.raises(ProjectionError):
        solve_pressure(g, rho, _rfft(src), max_iter=1)


def test_spectral_cg_exact_warm_start_does_not_iterate():
    g, rho, src = pressure_problem(26)
    shat = _rfft(src)
    phat = solve_pressure(g, rho, shat, tol=1e-12)
    # max_iter=0 allows no iteration: only the warm-start check can return
    again = solve_pressure(g, rho, shat, tol=1e-10, max_iter=0, p0=phat)
    assert np.array_equal(again, phat)


def test_runs_are_byte_stable():
    g = Grid2D(32, 32)
    data = InitialData(perturbed_density(g, seed=28),
                       random_divfree_field(g, seed=29, cutoff=4))
    cfg = make_config(g, 2e-3, 0.01, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
    (sa, la), (sb, lb) = run(cfg, data), run(cfg, data)
    a, b = sa[-1], sb[-1]
    assert a.t == b.t
    for x, y in ((a.u.comp1, b.u.comp1), (a.u.comp2, b.u.comp2),
                 (a.rho.values, b.rho.values), (a.pressure.values, b.pressure.values)):
        assert np.array_equal(x, y)
    for name in ("times", "kinetic", "dissipation", "work"):
        assert np.array_equal(getattr(la, name), getattr(lb, name))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_overflowing_force_raises_blow_up_naming_the_step():
    # a finite forcing of 1e300 overflows the advective products of the
    # stage it enters; that is a solver failure, not invalid input
    g = Grid2D(16, 16)
    _, x2 = g.coords()

    def force(t):
        return VectorField(g, 1e300 * np.sin(x2), np.zeros((16, 16))) if t > 0 else None

    cfg = make_config(g, 0.01, 0.05)
    with pytest.raises(BlowUpError, match=r"step [1-9]\d* \(t = [0-9.e-]+\)") as err:
        run(cfg, InitialData(unit_density(g), taylor_green(g), force))
    assert isinstance(err.value, RuntimeError) and not isinstance(err.value, ValueError)
