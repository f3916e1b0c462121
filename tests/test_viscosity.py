import numpy as np
import pytest
import sympy as sm

from oddflow import viscosity
from oddflow.cli import _FAULTS
from oddflow.fields import Grid2D, VectorField, random_divfree_field
from oddflow.viscosity import (
    DensityBounds,
    ViscosityLaw,
    check_pointwise_cancellation,
    check_weak_cancellation,
    make_law,
    parse_law_spec,
    strain_odd,
    strain_sym,
    viscous_stress,
)

BOUNDS = DensityBounds(0.5, 1.5)


def test_density_bounds_validation():
    with pytest.raises(ValueError):
        DensityBounds(0.0, 1.0)
    with pytest.raises(ValueError):
        DensityBounds(2.0, 1.0)
    assert BOUNDS.contains(np.array([0.5, 1.0, 1.5]))
    assert not BOUNDS.contains(np.array([0.4]))


def test_density_bounds_must_be_finite():
    # an infinite upper bound overflowed the CLI's density sampling
    for hi in (np.inf, np.nan):
        with pytest.raises(ValueError, match="< inf"):
            DensityBounds(0.5, hi)


def test_law_range_validation():
    # nu_e dips below mu_star on the density range
    with pytest.raises(ValueError):
        make_law("affine:0.0,1.0", "const:0.0", 0.75, 2.0, BOUNDS)
    # nu_o exceeds mu_upper in magnitude
    with pytest.raises(ValueError):
        make_law("const:1.0", "const:-3.0", 0.5, 2.0, BOUNDS)
    law = make_law("affine:0.75,0.5", "prop:0.5", 0.5, 2.0, BOUNDS)
    rho = np.linspace(0.5, 1.5, 7)
    assert np.allclose(law.mu_e(rho), 0.75 + 0.5 * rho)
    assert np.allclose(law.mu_o(rho), 0.5 * rho)


def test_parse_law_spec_forms(tmp_path):
    assert parse_law_spec("const:2.5")(np.array([0.7]))[0] == 2.5
    assert parse_law_spec("affine:1.0,2.0")(np.array([0.5]))[0] == 2.0
    assert parse_law_spec("prop:3.0")(np.array([0.5]))[0] == 1.5
    table = tmp_path / "law.txt"
    np.savetxt(table, np.array([[0.0, 1.0], [1.0, 3.0]]))
    fn = parse_law_spec(f"table:{table}")
    assert fn(np.array([0.5]))[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        parse_law_spec("quadratic:1.0")


def test_parse_law_spec_rejects_non_finite_values(tmp_path):
    for spec in ("const:nan", "const:inf", "affine:1,nan", "affine:-inf,1", "prop:nan"):
        with pytest.raises(ValueError, match="non-finite"):
            parse_law_spec(spec)
    table = tmp_path / "law.txt"
    np.savetxt(table, np.array([[0.0, 1.0], [1.0, np.nan]]))
    with pytest.raises(ValueError, match="non-finite"):
        parse_law_spec(f"table:{table}")
    assert parse_law_spec("const:-0.5")(np.array([1.0]))[0] == -0.5


def _sympy_strains():
    """Exact strain tensors of an analytic velocity field on the torus."""
    x, y = sm.symbols("x y")
    u1 = sm.sin(x) * sm.cos(2 * y)
    u2 = sm.cos(3 * x) * sm.sin(y)
    d1u1, d2u1 = sm.diff(u1, x), sm.diff(u1, y)
    d1u2, d2u2 = sm.diff(u2, x), sm.diff(u2, y)
    sym = ((2 * d1u1, d2u1 + d1u2), (d2u1 + d1u2, 2 * d2u2))
    odd = ((-(d1u2 + d2u1), d1u1 - d2u2), (d1u1 - d2u2, d1u2 + d2u1))
    return (u1, u2), sym, odd, (x, y)


def test_strain_tensors_match_sympy_oracle():
    (u1s, u2s), sym, odd, (x, y) = _sympy_strains()
    g = Grid2D(48, 48)
    x1, x2 = g.coords()
    f = lambda e: sm.lambdify((x, y), e, "numpy")(x1, x2) + np.zeros_like(x1)
    u = VectorField(g, f(u1s), f(u2s))
    s = strain_sym(u)
    o = strain_odd(u)
    assert np.max(np.abs(s.t11 - f(sym[0][0]))) < 1e-11
    assert np.max(np.abs(s.t12 - f(sym[0][1]))) < 1e-11
    assert np.max(np.abs(s.t22 - f(sym[1][1]))) < 1e-11
    assert np.max(np.abs(o.t11 - f(odd[0][0]))) < 1e-11
    assert np.max(np.abs(o.t12 - f(odd[0][1]))) < 1e-11
    assert np.max(np.abs(o.t22 - f(odd[1][1]))) < 1e-11


def test_pointwise_cancellation_is_algebraic_identity():
    # sympy oracle: odd : sym = 0 for arbitrary (not necessarily
    # divergence-free) velocity fields
    _, sym, odd, _ = _sympy_strains()
    frob = sum(
        sm.expand(sym[i][j] * odd[i][j]) for i in range(2) for j in range(2)
    )
    assert sm.simplify(frob) == 0
    # and numerically, for general fields
    g = Grid2D(32, 32)
    x1, x2 = g.coords()
    u = VectorField(g, np.sin(x1) * np.cos(2 * x2), np.cos(3 * x1) * np.sin(x2))
    assert check_pointwise_cancellation(u) < 1e-12


def test_weak_cancellation_for_divergence_free_pairs():
    g = Grid2D(64, 64)
    u = random_divfree_field(g, seed=1, cutoff=8)
    phi = random_divfree_field(g, seed=2, cutoff=8)
    assert check_weak_cancellation(u, phi) < 1e-10
    # non-divergence-free input is rejected
    bad = VectorField(g, g.coords()[0] * 0 + np.sin(g.coords()[0]), 0 * u.comp2)
    with pytest.raises(ValueError):
        check_weak_cancellation(bad, phi)


def test_viscous_stress_checks_density_bounds():
    g = Grid2D(16, 16)
    law = make_law("const:1.0", "const:0.5", 0.5, 2.0, BOUNDS)
    u = random_divfree_field(g, seed=4, cutoff=3)
    from oddflow.fields import ScalarField

    rho_bad = ScalarField(g, np.full((16, 16), 3.0))
    with pytest.raises(ValueError):
        viscous_stress(law, rho_bad, u)
    rho = ScalarField(g, np.ones((16, 16)))
    sigma = viscous_stress(law, rho, u)
    s, o = strain_sym(u), strain_odd(u)
    assert np.allclose(sigma.t12, s.t12 + 0.5 * o.t12)


def test_fault_injection_breaks_cancellation(monkeypatch):
    g = Grid2D(32, 32)
    u = random_divfree_field(g, seed=9, cutoff=5)
    clean = check_pointwise_cancellation(u)
    # installed as `verify --inject-fault strain-odd-sign` installs it
    monkeypatch.setattr(viscosity, *_FAULTS["strain-odd-sign"])
    faulty = check_pointwise_cancellation(u)
    assert clean < 1e-12
    assert faulty > 1e-6
