import itertools

import numpy as np
import pytest

from _spectral import inv_laplacian
from oddflow import evolve, fields, semilag
from oddflow.cli import _steady_shear_defects
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
    norms,
    random_divfree_field,
    random_scalar_field,
)
from oddflow.viscosity import DensityBounds, make_law, strain_sym


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
    # a nan step would fail as a non-finite state, an infinite t_end never ends
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            make_config(g, bad, 1.0)
        with pytest.raises(ValueError, match="finite and positive"):
            make_config(g, 1e-3, bad)


def test_config_bounds_must_equal_the_law_bounds():
    # the law keeps mu_e = 0.75 + 0.5 rho <= 1.5 on its own bounds only: at
    # rho = 2.5, inside the config's wider bounds, mu_e = 2.0 > mu_upper
    g = Grid2D(16, 16)
    law = make_law("affine:0.75,0.5", "const:0.0", 0.5, 1.5, DensityBounds(0.5, 1.5))
    with pytest.raises(ValueError, match="law's bounds"):
        EvolveConfig(g, 1e-3, 1e-2, law, DensityBounds(0.5, 3.0))
    EvolveConfig(g, 1e-3, 1e-2, law, DensityBounds(0.5, 1.5))  # equal by value


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


def test_stable_dt_is_config_dt_or_cfl_step():
    # no viscous limit: the CFL step 0.0245 binds for dt = 1, where
    # h^2 / (8 mu_upper) would have been 0.0024
    g = Grid2D(32, 32)
    u = taylor_green(g, amp=4.0)
    umax = max(np.max(np.abs(u.comp1)), np.max(np.abs(u.comp2)))
    for dt in (1.0, 1e-3):
        assert stable_dt(make_config(g, dt, 1.0), u) == min(dt, 0.5 * g.h1 / umax)


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
    for dt in (2e-3, 1e-3):
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


def test_spectral_cg_constant_density_matches_inv_laplacian(monkeypatch):
    g, _, src = pressure_problem(20)
    rho = np.full((g.n1, g.n2), 1.3)
    phat, iterations, _ = solve_pressure(g, rho, _rfft(src), tol=1e-12)
    # at constant density the preconditioner is the operator's inverse
    assert iterations == 1
    p = _irfft(g, phat)
    # div((1/rho) grad p) = src with rho constant: p = rho * lap^-1 src;
    # the two Laplacian symbols differ only on the Nyquist modes
    want = 1.3 * inv_laplacian(ScalarField(g, src)).values
    assert np.max(np.abs(p - want)) < 1e-12 * np.max(np.abs(want))
    # the warm start is dropped, so the solve repeats the cold one bit for
    # bit, and a constant weight commutes with the transforms: no operator
    # application transforms a plane
    inverse = _count_calls(monkeypatch, "_irfft")
    forward = _count_calls(monkeypatch, "_rfft")
    warm, iterations, _ = solve_pressure(g, rho, _rfft(src), tol=1e-12, p0=1.01 * phat)
    assert iterations == 1 and len(inverse) == 0 and len(forward) == 0
    assert np.array_equal(warm, phat)


def test_spectral_cg_physical_residual_meets_tol():
    # a smooth density on 32^2, and a discontinuous one on 64^2: rho = 1.5
    # on a centred square, 0.5 outside, which the reciprocal-density
    # preconditioner takes in 9 cold iterations and the constant-coefficient
    # diagonal in 17
    smooth = pressure_problem(22)
    g = Grid2D(64, 64)
    x1, x2 = g.coords()
    inside = (np.abs(x1 - np.pi) < np.pi / 2) & (np.abs(x2 - np.pi) < np.pi / 2)
    jump = g, np.where(inside, 1.5, 0.5), random_scalar_field(g, seed=23, cutoff=20).values
    tol = 1e-10
    for g, rho, src in (smooth, jump):
        phat, iterations, residual = solve_pressure(g, rho, _rfft(src), tol=tol)
        assert 1 <= iterations <= 12
        gp = grad(ScalarField(g, _irfft(g, phat)))
        lhs = divergence(VectorField(g, gp.comp1 / rho, gp.comp2 / rho)).values
        b = src - np.mean(src)
        physical = np.sqrt(np.sum((lhs - b) ** 2) / np.sum(b * b))
        assert physical <= tol
        assert residual == pytest.approx(physical, rel=1e-3)


def test_spectral_cg_iteration_cap_raises():
    g, rho, src = pressure_problem(24)
    with pytest.raises(ProjectionError):
        solve_pressure(g, rho, _rfft(src), max_iter=1)


def test_spectral_cg_exact_warm_start_does_not_iterate():
    g, rho, src = pressure_problem(26)
    shat = _rfft(src)
    phat, _, _ = solve_pressure(g, rho, shat, tol=1e-12)
    # max_iter=0 allows no iteration: only the warm-start check can return
    again, iterations, residual = solve_pressure(g, rho, shat, tol=1e-10, max_iter=0, p0=phat)
    assert np.array_equal(again, phat)
    assert iterations == 0 and residual <= 1e-10


def test_ledger_records_density_of_every_step():
    g = Grid2D(16, 16)
    data = InitialData(perturbed_density(g, seed=5),
                       random_divfree_field(g, seed=6, cutoff=3))
    cfg = make_config(g, 5e-3, 0.05, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
    states, ledger = run(cfg, data, store_every=1)
    assert len(ledger.mass) == len(ledger.times) == len(states) > 2
    for k, st in enumerate(states):
        rho = st.rho.values
        assert ledger.times[k] == st.t
        assert ledger.rho_min[k] == rho.min()
        assert ledger.rho_max[k] == rho.max()
        assert ledger.mass[k] == np.sum(rho) * g.cell_area


def test_ledger_dissipation_is_the_trapezoid_of_the_stored_states():
    # run takes each rate from the coefficients its step made; recomputed
    # from the stored velocity, the rates agree to rounding, while the
    # coefficients of a stage or of the step before differ by O(dt)
    g = Grid2D(32, 32)
    data = InitialData(perturbed_density(g, seed=30),
                       random_divfree_field(g, seed=31, cutoff=4))
    cfg = make_config(g, 2e-3, 0.02, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
    states, ledger = run(cfg, data, store_every=1)
    assert [st.t for st in states] == ledger.times and len(states) > 5
    rates = []
    for st in states:
        s = strain_sym(st.u)
        mag = s.t11**2 + s.t12**2 + s.t21**2 + s.t22**2
        rates.append(float(np.sum(cfg.law.mu_e(st.rho.values) * mag) * g.cell_area))
    for k in range(1, len(states)):
        want = 0.5 * ledger.dt[k - 1] * (rates[k - 1] + rates[k])
        got = ledger.dissipation[k] - ledger.dissipation[k - 1]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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
    for name in ("times", "kinetic", "dissipation", "work", "cg_iterations", "cg_residual"):
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_overflowing_initial_data_raises_blow_up_in_the_set_up():
    # finite at amplitude 1e306, but its kinetic energy overflows: a
    # solver failure of the set-up, before any step is taken
    g = Grid2D(16, 16)
    cfg = make_config(g, 0.01, 0.05)
    with pytest.raises(BlowUpError, match=r"step 0 \(t = 0\)"):
        run(cfg, InitialData(unit_density(g), taylor_green(g, amp=1e306)))


def test_collapsing_cfl_step_raises_blow_up_naming_the_step():
    # a 1e150 forcing makes the velocity huge after one step of the
    # configured dt 0.01; the CFL step then drops to 1e-147 of it, which
    # would hold t still for hundreds of steps before the state overflows
    g = Grid2D(16, 16)
    _, x2 = g.coords()

    def force(t):
        return VectorField(g, 1e150 * np.sin(x2), np.zeros((16, 16))) if t > 0 else None

    cfg = make_config(g, 0.01, 0.05)
    with pytest.raises(BlowUpError, match=r"fell below 1e-06 of the configured dt .* step 2 \(t = 0.01\)"):
        run(cfg, InitialData(unit_density(g), taylor_green(g), force))


def test_short_last_step_does_not_trip_the_dt_floor():
    # at rest every step is the configured dt; the last one is clipped to
    # 1e-9 of it to land on t_end, far below the floor fraction
    g = Grid2D(16, 16)
    z = np.zeros((16, 16))
    rest = VectorField(g, z, z)
    cap = stable_dt(make_config(g, 0.01, 1.0), rest)
    cfg = make_config(g, 0.01, cap * (2.0 + 1e-9))
    _, ledger = run(cfg, InitialData(unit_density(g), rest))
    steps = np.diff(ledger.times)
    assert len(steps) == 3 and steps[-1] < 1e-6 * cap
    assert ledger.times[-1] == pytest.approx(cfg.t_end, rel=1e-14)


def test_exact_variable_density_steady_shear_stays_steady():
    # rho = 1 + 0.3 cos x2, u = (sin x2, 0), variable laws: a fixed point
    # of the step, with the closed-form pressure mu_o(rho) U'
    du, drho, dp = _steady_shear_defects()
    assert du <= 1e-12 and drho <= 1e-12
    assert dp <= 1e-11


def test_ledger_records_the_limit_of_every_step():
    # the evolve-uniform-256 inputs: the CFL step (4.3e-3) and dt exceed
    # t_end, so one step lands on it
    g = Grid2D(256, 256)
    cfg = make_config(g, 6e-4, 3e-4, nu_o="const:0.5")
    data = InitialData(unit_density(g), random_divfree_field(g, seed=7, cutoff=4))
    _, ledger = run(cfg, data)
    assert ledger.limit == ["t_end"] and ledger.dt == [3e-4]
    # the README example on 64^2: the configured dt, then a short last step
    g = Grid2D(64, 64)
    cfg = make_config(g, 6e-4, 0.02, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
    data = InitialData(perturbed_density(g, seed=1),
                       random_divfree_field(g, seed=2, cutoff=4))
    _, ledger = run(cfg, data)
    assert len(ledger.dt) == len(ledger.limit) == len(ledger.times) - 1 == 34
    assert set(ledger.limit[:-1]) == {"config"} and ledger.limit[-1] == "t_end"
    assert all(dt == 6e-4 for dt in ledger.dt[:-1])
    assert np.diff(ledger.times) == pytest.approx(ledger.dt, rel=1e-9)


def test_steps_four_times_the_old_viscous_cap_are_stable_and_second_order():
    # 128^2, variable laws, dt = 6e-4 where h^2 / (8 mu_upper) = 1.5e-4;
    # with the whole viscous term explicit in the RK2, the kinetic energy
    # grows to 6 times its initial value by t = 0.024 at this dt
    g = Grid2D(128, 128)
    data = InitialData(perturbed_density(g, seed=12),
                       random_divfree_field(g, seed=13, cutoff=4))
    finals = []
    for dt in (6e-4, 3e-4, 1.5e-4):
        cfg = make_config(g, dt, 0.024, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
        states, ledger = run(cfg, data)
        assert all(d == dt for d in ledger.dt[:-1])
        assert np.all(np.diff(ledger.kinetic) <= 1e-6 * ledger.kinetic[0])
        assert min(ledger.rho_min) >= ledger.rho_min[0]
        assert max(ledger.rho_max) <= ledger.rho_max[0]
        assert norms(divergence(states[-1].u))["linf"] <= 1e-8
        finals.append(states[-1].u)
    diffs = [norms(VectorField(g, a.comp1 - b.comp1, a.comp2 - b.comp2))["l2"]
             for a, b in zip(finals, finals[1:])]
    assert diffs[0] >= 3.0 * diffs[1]


def test_ledger_records_the_cg_solves_of_every_step():
    # a (stage 1, stage 2) pair per step, each solve converged; the
    # reciprocal-density preconditioner and the warm starts keep a solve
    # of this smooth density to a few iterations
    g = Grid2D(32, 32)
    data = InitialData(perturbed_density(g, seed=32),
                       random_divfree_field(g, seed=33, cutoff=4))
    cfg = make_config(g, 2e-3, 0.02, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
    _, ledger = run(cfg, data)
    steps = len(ledger.times) - 1
    assert steps == 10
    assert len(ledger.cg_iterations) == len(ledger.cg_residual) == steps
    assert all(len(its) == len(res) == 2 for its, res in
               zip(ledger.cg_iterations, ledger.cg_residual))
    iterations = np.array(ledger.cg_iterations)
    assert np.mean(iterations) <= 6
    assert np.all(np.array(ledger.cg_residual) <= 1e-10)


def test_warm_start_extrapolates_the_last_four_solutions_in_time():
    rng = np.random.default_rng(36)
    a, b, c, d = (rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
                  for _ in range(4))

    def q(t):
        return a + t * (b + t * (c + t * d))

    def rel(p, exact):
        return np.max(np.abs(p - exact)) / np.max(np.abs(exact))

    # unequal steps, the last one clipped short; an older, fifth entry
    # must not enter the cubic
    times = [0.0, 0.3, 0.9, 1.4, 2.0, 2.1]
    history = [(times[0], np.full((8, 5), np.nan + 0j))] + [(t, q(t)) for t in times[1:]]
    for t in (2.1, 2.6, 2.9):
        assert rel(evolve._warm_start(history, t), q(t)) <= 1e-12
    # fewer entries: the entry itself, the line and the parabola through them
    assert evolve._warm_start([], 1.0) is None
    assert np.array_equal(evolve._warm_start(history[-1:], 2.6), q(2.1))
    line = q(2.1) + (2.6 - 2.1) / (2.1 - 2.0) * (q(2.1) - q(2.0))
    assert rel(evolve._warm_start(history[-2:], 2.6), line) <= 1e-12
    parabola = [(t, a + t * (b + t * c)) for t in times[-3:]]
    assert rel(evolve._warm_start(parabola, 2.6), a + 2.6 * (b + 2.6 * c)) <= 1e-12


def test_cubic_warm_starts_keep_a_64_squared_solve_to_three_iterations():
    # at dt 6e-4 the pressure is smooth in time, so the cubic extrapolation
    # of the last four solutions leaves under 3.25 iterations a solve once
    # the history is full (the linear extrapolation of the last two: 4.00)
    g = Grid2D(64, 64)
    data = InitialData(perturbed_density(g, seed=32),
                       random_divfree_field(g, seed=33, cutoff=4))
    cfg = make_config(g, 6e-4, 0.02, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
    _, ledger = run(cfg, data)
    assert ledger.limit[-1] == "t_end"
    assert np.mean(ledger.cg_iterations[4:]) <= 3.25
    assert np.all(np.array(ledger.cg_residual) <= 1e-10)


def _count_calls(monkeypatch, name, module=evolve):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_constant_density_run_takes_the_exact_path(monkeypatch):
    # a constant density is transported with no interpolation and stays
    # bitwise constant; one ulp more at one node takes the general path:
    # the departure points' and the density's interpolation each step
    g = Grid2D(16, 16)
    cfg = make_config(g, 2e-3, 0.01, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
    rho0 = np.full((16, 16), 1.1)
    u0 = random_divfree_field(g, seed=36, cutoff=4)
    interp = _count_calls(monkeypatch, "interp_bicubic", semilag)
    states, ledger = run(cfg, InitialData(ScalarField(g, rho0), u0), store_every=1)
    assert len(ledger.dt) == 5 and len(states) == 6
    for st in states:
        assert np.array_equal(st.rho.values, rho0)
    for series in (ledger.mass, ledger.rho_min, ledger.rho_max):
        assert len(set(series)) == 1
    assert interp == []
    bumped = rho0.copy()
    bumped[3, 7] = np.nextafter(1.1, 2.0)
    _, ledger = run(cfg, InitialData(ScalarField(g, bumped), u0))
    assert len(interp) == 2 * len(ledger.dt) == 10


def test_constant_density_step_transforms_only_the_velocity(monkeypatch):
    # a constant density weights the tendencies and the pressure solves by
    # one number, which commutes with the transforms: a step transforms
    # only uhat (2 planes), each stage's right side (4 derivative planes,
    # 5 product planes) and each stage's velocity (2 planes).  Once per
    # run: the final recovery (2 + 9) and the two kept pressures (1
    # each); u0's divergence check shares the first stage's transforms
    g = Grid2D(32, 32)
    cfg = make_config(g, 2e-3, 0.01, nu_e="const:1.0", nu_o="const:0.5")
    data = InitialData(unit_density(g), random_divfree_field(g, seed=37, cutoff=4))
    planes, numpy_planes = [], []
    for module, name in itertools.product((evolve, fields), ("_rfft", "_irfft")):
        def counted(*args, inner=getattr(module, name), **kwargs):
            planes.append(int(np.prod(args[-1].shape[:-2])))
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    # numpy.fft's own entry points as well, so that a transform that
    # bypasses `_rfft`/`_irfft` is counted too: a 2-d call transforms
    # whole planes, a 1-d call one axis pass of each, half a plane
    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
                 "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(a, *args, inner=getattr(np.fft, name),
                    share=1.0 if name[-1] in "2n" else 0.5, **kwargs):
            numpy_planes.append(share * np.prod(np.shape(a)[:-2]))
            return inner(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    _, ledger = run(cfg, data)
    steps = len(ledger.dt)
    assert steps == 5 and max(max(pair) for pair in ledger.cg_iterations) == 1
    assert sum(planes) == 24 * steps + 13
    assert sum(numpy_planes) == 24 * steps + 13


def test_weighted_hat_scalar_and_array_weights_agree():
    # the scalar branch multiplies the coefficients, the array branch the
    # planes on the grid; a constant density takes the first
    g = Grid2D(32, 24)
    rho = np.full((32, 24), 1.3)
    weights = evolve._density_weights(rho)
    assert all(isinstance(w, float) for w in weights)
    vhat = _rfft(np.random.default_rng(38).standard_normal((2, 32, 24)))
    for w, w_array in zip(weights, (rho, 1.0 / rho)):
        scalar = evolve._weighted_hat(g, w, vhat)
        array = evolve._weighted_hat(g, w_array, vhat)
        assert np.max(np.abs(scalar - array)) <= 1e-14 * np.max(np.abs(scalar))
    bumped = rho.copy()
    bumped[3, 7] = np.nextafter(1.3, 2.0)
    assert all(isinstance(w, np.ndarray) for w in evolve._density_weights(bumped))


def test_run_evaluates_each_state_once(monkeypatch):
    # a step's first stage gives the pressure and the dissipation rate of
    # the state it starts from, so only the final state has a recovery of
    # its own: 2 right sides per step and 1 for the final state
    g = Grid2D(32, 32)
    data = InitialData(perturbed_density(g, seed=34),
                       random_divfree_field(g, seed=35, cutoff=4))
    cfg = make_config(g, 2e-3, 0.02, nu_e="affine:0.75,0.5", nu_o="prop:0.5")
    u0 = np.stack((data.u0.comp1, data.u0.comp2))
    cold, _ = evolve.recover_pressure(g, cfg.law, data.rho0.values, u0, _rfft(u0), None)
    rhs = _count_calls(monkeypatch, "_advective_rhs")
    recoveries = _count_calls(monkeypatch, "recover_pressure")
    states, ledger = run(cfg, data)
    steps = len(ledger.dt)
    assert steps == 10
    assert len(rhs) == 2 * steps + 1 and len(recoveries) == 1
    assert np.array_equal(states[0].pressure.values, _irfft(g, cold))
    # every kept pressure is its state's own, to the CG tolerance
    monkeypatch.undo()
    states, _ = run(cfg, data, store_every=1)
    assert len(states) == steps + 1
    for st in states:
        u = np.stack((st.u.comp1, st.u.comp2))
        phat, _ = evolve.recover_pressure(g, cfg.law, st.rho.values, u, _rfft(u), None)
        p = _irfft(g, phat)
        assert np.max(np.abs(st.pressure.values - p)) <= 1e-9 * np.max(np.abs(p))
