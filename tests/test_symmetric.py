import numpy as np
import pytest

from oddflow.symmetric import (
    ConcentricProblem,
    ParallelProblem,
    RadialProblem,
    radial_nonexistence_demo,
    solve_concentric,
    solve_parallel,
    solve_radial,
    verify_full_momentum,
)
from oddflow.viscosity import DensityBounds, make_law

BOUNDS = DensityBounds(0.5, 2.5)


def law(nu_e="const:1.0", nu_o="const:0.5", mu_star=0.5, mu_upper=2.5):
    return make_law(nu_e, nu_o, mu_star, mu_upper, BOUNDS)


def const_rho(value=1.0):
    return lambda s: np.full_like(np.asarray(s, dtype=float), value)


# -------------------------------------------------------------- validation

def test_problem_validation():
    with pytest.raises(ValueError):
        ParallelProblem(const_rho(), law(), 0.0, 0.0, 1.0, 0.0, 1.0,
                        mode="weird")
    with pytest.raises(ValueError):
        ParallelProblem(const_rho(), law(), 0.0, 1.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        ConcentricProblem(const_rho(), law(), 0.0, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        RadialProblem(const_rho(), law(), 1.0, collocation_n=48)
    with pytest.raises(ValueError):
        verify_full_momentum(
            type("S", (), {"kind": "spiral"})(), None
        )


# ---------------------------------------------------------------- parallel

def test_couette_profile():
    p = ParallelProblem(const_rho(), law(), 0.0, 0.0, 1.0, 0.0, 1.0)
    sol = solve_parallel(p)
    assert np.max(np.abs(sol.profile - sol.nodes)) < 1e-8
    # constant odd stress: the balancing pressure gradient vanishes
    assert np.ptp(sol.pressure["beta"]) < 1e-12
    assert verify_full_momentum(sol, p) < 1e-10


def test_poiseuille_profile():
    p = ParallelProblem(const_rho(), law(), -2.0, 0.0, 1.0, 0.0, 0.0)
    sol = solve_parallel(p)
    x = sol.nodes
    assert np.max(np.abs(sol.profile - x * (1.0 - x))) < 1e-8
    assert verify_full_momentum(sol, p) < 1e-10


def test_log_profile_with_proportional_viscosity():
    # rho(x) = x and mu_e = rho on [1, 2] with no axial pressure
    # gradient: u' = C1 / x, so the profile is logarithmic
    p = ParallelProblem(lambda s: np.asarray(s, dtype=float),
                        law(nu_e="prop:1.0"), 0.0, 1.0, 2.0, 0.0, 1.0)
    sol = solve_parallel(p)
    exact = np.log(sol.nodes) / np.log(2.0)
    assert np.max(np.abs(sol.profile - exact)) < 1e-8


def test_piecewise_viscosity_with_breakpoints():
    # two-layer Couette: mu_e = 1 below x = 0.5 and 2 above; the exact
    # profile is piecewise linear with slope ratio 2:1
    rho = lambda s: np.where(np.asarray(s, dtype=float) < 0.5, 1.0, 2.0)
    p = ParallelProblem(rho, law(nu_e="prop:1.0"), 0.0, 0.0, 1.0, 0.0, 1.0,
                        breakpoints=(0.5,))
    sol = solve_parallel(p)
    c1 = 1.0 / (0.5 / 1.0 + 0.5 / 2.0)
    x = sol.nodes
    exact = np.where(x < 0.5, c1 * x, c1 * 0.5 + c1 / 2.0 * (x - 0.5))
    assert np.max(np.abs(sol.profile - exact)) < 1e-8


def test_strict_mode_incompatibility_detects_variable_ratio():
    # with zero axial pressure gradient mu_o u' = (nu_o/nu_e)(C1): the
    # strict reduced system is compatible iff the viscosity ratio is
    # constant along the profile
    rho = lambda s: 1.0 + 0.3 * np.asarray(s, dtype=float)
    ok = ParallelProblem(rho, law(nu_e="prop:1.0", nu_o="prop:0.5"),
                         0.0, 0.0, 1.0, 0.0, 1.0, mode="strict")
    assert solve_parallel(ok).extras["incompatibility"] < 1e-8
    bad = ParallelProblem(rho, law(nu_e="const:1.0", nu_o="prop:0.5"),
                          0.0, 0.0, 1.0, 0.0, 1.0, mode="strict")
    assert solve_parallel(bad).extras["incompatibility"] > 1e-2


# -------------------------------------------------------------- concentric

def test_rigid_rotation_is_exact():
    p = ConcentricProblem(const_rho(), law(), 0.0, 0.0, 1.0, 2.0, g_in=0.7)
    sol = solve_concentric(p)
    assert np.max(np.abs(sol.profile - 0.7)) < 1e-12
    # centrifugal balance: beta'(r) = r rho g^2
    assert np.allclose(sol.pressure["beta_prime"], sol.nodes * 0.49)
    assert verify_full_momentum(sol, p) < 1e-12


def test_concentric_closed_form_profile():
    # mu_e = 1, C = 0: g(r) = g_in + C1/2 (1/r_in^2 - 1/r^2)
    p = ConcentricProblem(const_rho(), law(), 0.0, 0.5, 1.0, 2.0, g_in=0.2)
    sol = solve_concentric(p)
    r = sol.nodes
    exact = 0.2 + 0.25 * (1.0 - 1.0 / r**2)
    assert np.max(np.abs(sol.profile - exact)) < 1e-8
    assert sol.pressure["alpha_tilde"] == 0.0
    assert verify_full_momentum(sol, p) < 1e-4


def test_concentric_profile_independent_of_odd_viscosity():
    sols = []
    for nu_o in ("const:-1.0", "const:0.0", "const:1.0"):
        p = ConcentricProblem(const_rho(), law(nu_o=nu_o), 1.0, 0.5,
                              1.0, 2.0, g_in=0.1)
        sols.append(solve_concentric(p).profile)
    assert np.array_equal(sols[0], sols[1])
    assert np.array_equal(sols[1], sols[2])


# ------------------------------------------------------------------ radial

def test_radial_constant_profile_exact():
    # rho = 1, mu_e = 1, C = 5: the constant root is exactly h = 1
    p = RadialProblem(const_rho(), law(), 5.0)
    sol = solve_radial(p)
    assert np.max(np.abs(sol.profile - 1.0)) < 1e-10
    assert verify_full_momentum(sol, p) < 1e-10


def test_radial_zero_source_gives_zero_profile():
    p = RadialProblem(const_rho(), law(), 0.0)
    sol = solve_radial(p)
    assert np.max(np.abs(sol.profile)) == 0.0


def test_radial_invariant_under_constant_odd_viscosity():
    # for constant mu_o the two odd terms cancel identically, so the
    # profile cannot depend on its value
    rho = lambda s: 1.0 + 0.3 * np.sin(np.asarray(s, dtype=float))
    base = None
    for nu_o in ("const:-1.0", "const:0.0", "const:1.0"):
        p = RadialProblem(rho, law(nu_o=nu_o), 5.0)
        h = solve_radial(p).profile
        if base is None:
            base = h
        assert np.max(np.abs(h - base)) < 1e-10


def test_radial_newton_converges_quadratically():
    rho = lambda s: 1.0 + 0.3 * np.sin(np.asarray(s, dtype=float))
    p = RadialProblem(rho, law(nu_o="prop:0.5"), 5.0)
    sol = solve_radial(p)
    hist = sol.extras["newton_residuals"]
    assert hist[-1] <= 1e-10
    # terminal quadratic contraction
    assert hist[-1] <= 1e3 * hist[-2] ** 2


def test_radial_spectral_self_convergence():
    rho = lambda s: 1.0 + 0.3 * np.sin(np.asarray(s, dtype=float))
    coarse = solve_radial(RadialProblem(rho, law(nu_o="prop:0.5"), 5.0,
                                        collocation_n=64))
    fine = solve_radial(RadialProblem(rho, law(nu_o="prop:0.5"), 5.0,
                                      collocation_n=128))
    assert np.max(np.abs(fine.profile[::2] - coarse.profile)) < 1e-9


def test_radial_newton_reports_divergence():
    with pytest.raises(RuntimeError, match="Newton"):
        rho = lambda s: 1.0 + 0.3 * np.sin(np.asarray(s, dtype=float))
        solve_radial(RadialProblem(rho, law(), 5.0), max_iter=1)


# -------------------------------------------------- nonexistence refinement

def test_jump_odd_viscosity_refinement_diverges():
    report = radial_nonexistence_demo(C=1.0, levels=(64, 128, 256))
    res = [row["residual"] for row in report]
    h1 = [row["h1_seminorm"] for row in report]
    # no convergence under refinement: either the residual stays bounded
    # away from zero or the H1 seminorm of the compensating iterate blows
    # up (both signal the absence of a Sobolev profile)
    stagnates = all(r >= 0.5 * res[0] for r in res)
    blows_up = all(b >= 2.0 * a for a, b in zip(h1[:-1], h1[1:]))
    assert stagnates or blows_up


def test_shear_viscosity_restores_solvability():
    report = radial_nonexistence_demo(C=1.0, levels=(128,), mu_e=0.1)
    assert report[0]["residual"] <= 1e-10
    assert np.isfinite(report[0]["h1_seminorm"])


@pytest.mark.parametrize("mu_e", [0.0, 0.1])
@pytest.mark.parametrize("mu_o_values", [(0.5, -1.0), (0.0, 1.0), (np.nan, 1.0)],
                         ids=["negative", "zero", "nan"])
def test_nonexistence_demo_rejects_a_non_positive_density(mu_o_values, mu_e):
    # the demo's density is its odd viscosity, so both values must be
    # finite and positive
    with pytest.raises(ValueError, match="mu_o_values"):
        radial_nonexistence_demo(C=2.5, levels=(64,), mu_o_values=mu_o_values,
                                 mu_e=mu_e)


# ------------------------------------------------------------ sampling

def counting(rho_profile):
    calls = []

    def counted(s):
        calls.append(np.shape(s))
        return rho_profile(s)
    return counted, calls


def test_radial_and_verification_sample_the_density_once():
    rho, calls = counting(lambda s: 1.0 + 0.3 * np.sin(np.asarray(s, dtype=float)))
    radial = RadialProblem(rho, law(nu_o="prop:0.5"), 5.0)
    sol = solve_radial(radial)
    assert len(sol.extras["newton_residuals"]) > 2 and calls == [(64,)]
    del calls[:]
    verify_full_momentum(sol, radial)
    assert calls == [(64,)]
    concentric = ConcentricProblem(rho, law(nu_o="prop:0.5"), 1.0, 0.5, 1.0, 2.0, n=33)
    sol = solve_concentric(concentric)
    del calls[:]
    verify_full_momentum(sol, concentric)
    assert calls == [(33,)]
