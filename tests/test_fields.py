import numpy as np
import pytest
import scipy.fft

from _spectral import inv_laplacian, leray_project
from oddflow.fields import (
    Grid2D,
    ScalarField,
    TensorField,
    VectorField,
    _div_hat,
    _grad_hat,
    _irfft,
    _rfft,
    _rfft_wavenumbers,
    curl2d,
    divergence,
    grad,
    norms,
    perp_grad,
    random_divfree_field,
    random_scalar_field,
)


def trig_field(grid, k1=2, k2=3):
    x1, x2 = grid.coords()
    return ScalarField(grid, np.sin(k1 * x1) * np.cos(k2 * x2))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(3, 8)
    with pytest.raises(ValueError):
        Grid2D(8, 10, len1=-1.0)
    g = Grid2D(16, 32, 2.0, 4.0)
    assert g.h1 == pytest.approx(0.125)
    assert g.h2 == pytest.approx(0.125)
    assert g.cell_area == pytest.approx(0.125 ** 2)


def test_field_shape_and_finite_checks():
    g = Grid2D(8, 8)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 4)))
    bad = np.zeros((8, 8))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_grid_rejects_non_finite_periods():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            Grid2D(8, 8, len1=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            Grid2D(8, 8, len2=bad)


def test_fields_store_their_components_as_one_stack():
    g = Grid2D(8, 6)
    planes = np.random.default_rng(1).standard_normal((5, 8, 6))
    for cls, names in ((ScalarField, ("values",)), (VectorField, ("comp1", "comp2")),
                       (TensorField, ("t11", "t12", "t21", "t22"))):
        k = len(names)
        f = cls(g, *planes[:k])
        assert f.data.shape == (k, 8, 6)
        assert np.array_equal(f.data, planes[:k])
        assert not np.shares_memory(f.data, planes)  # the field holds a copy
        for name, plane in zip(names, planes):
            assert np.shares_memory(getattr(f, name), f.data)
            assert np.array_equal(getattr(f, name), plane)
        for count in (k - 1, k + 1):
            with pytest.raises(TypeError, match=f"takes {k} components"):
                cls(g, *planes[:count])
        # a bad component is named, wherever it sits in the stack
        bad = list(planes[:k])
        bad[-1] = np.zeros((8, 4))
        with pytest.raises(ValueError, match=f"{names[-1]} shape does not match grid"):
            cls(g, *bad)
        bad[-1] = planes[0].copy()
        bad[-1][2, 3] = np.inf
        with pytest.raises(ValueError, match=f"{names[-1]} contains non-finite values"):
            cls(g, *bad)


def test_spectral_gradient_exact_for_band_limited():
    g = Grid2D(32, 32)
    x1, x2 = g.coords()
    s = ScalarField(g, np.sin(2 * x1) * np.cos(3 * x2))
    gs = grad(s)
    assert np.allclose(gs.comp1, 2 * np.cos(2 * x1) * np.cos(3 * x2), atol=1e-12)
    assert np.allclose(gs.comp2, -3 * np.sin(2 * x1) * np.sin(3 * x2), atol=1e-12)


def test_gradient_respects_anisotropic_periods():
    g = Grid2D(32, 64, 1.0, 3.0)
    x1, x2 = g.coords()
    a1, a2 = 2 * np.pi / 1.0, 2 * np.pi / 3.0
    s = ScalarField(g, np.cos(a1 * x1) * np.sin(2 * a2 * x2))
    gs = grad(s)
    assert np.allclose(gs.comp1, -a1 * np.sin(a1 * x1) * np.sin(2 * a2 * x2), atol=1e-10)
    assert np.allclose(gs.comp2, 2 * a2 * np.cos(a1 * x1) * np.cos(2 * a2 * x2), atol=1e-10)


def test_perp_grad_is_divergence_free():
    g = Grid2D(48, 48)
    w = perp_grad(trig_field(g))
    assert norms(divergence(w))["linf"] < 1e-12


def test_curl_of_perp_grad_is_laplacian():
    # curl(perp-grad s) = lap s; check against the analytic Laplacian
    g = Grid2D(48, 48)
    s = trig_field(g, 2, 3)
    got = curl2d(perp_grad(s)).values
    want = -(2 ** 2 + 3 ** 2) * s.values
    assert np.max(np.abs(got - want)) < 1e-10


def test_inv_laplacian_inverts_laplacian():
    g = Grid2D(32, 32)
    s = trig_field(g, 4, 1)
    lap = ScalarField(g, -(4 ** 2 + 1 ** 2) * s.values)
    back = inv_laplacian(lap)
    assert np.max(np.abs(back.values - s.values)) < 1e-12
    assert abs(np.mean(back.values)) < 1e-14


def test_leray_projection_idempotent_and_divfree():
    g = Grid2D(32, 32)
    x1, x2 = g.coords()
    v = VectorField(g, np.sin(x1 + 2 * x2), np.cos(3 * x1) * np.sin(x2))
    pv = leray_project(v)
    assert norms(divergence(pv))["linf"] < 1e-11
    ppv = leray_project(pv)
    assert np.max(np.abs(ppv.comp1 - pv.comp1)) < 1e-12
    assert np.max(np.abs(ppv.comp2 - pv.comp2)) < 1e-12


def test_leray_projection_fixes_divergence_free_fields():
    g = Grid2D(32, 32)
    w = random_divfree_field(g, seed=3, cutoff=5)
    pw = leray_project(w)
    assert np.max(np.abs(pw.comp1 - w.comp1)) < 1e-12


def test_norms_against_closed_forms():
    g = Grid2D(64, 64)
    x1, _ = g.coords()
    s = ScalarField(g, np.sin(x1))
    n = norms(s)
    # int sin^2 over [0,2pi]^2 = 2 pi^2
    assert n["l2"] == pytest.approx(np.sqrt(2 * np.pi ** 2), rel=1e-12)
    assert n["linf"] == pytest.approx(1.0, rel=1e-12)
    assert n["h1_semi"] == pytest.approx(np.sqrt(2 * np.pi ** 2), rel=1e-12)


def test_random_fields_deterministic_and_band_limited():
    g = Grid2D(32, 32)
    a = random_scalar_field(g, seed=11, cutoff=4)
    b = random_scalar_field(g, seed=11, cutoff=4)
    assert np.array_equal(a.values, b.values)
    assert abs(np.mean(a.values)) < 1e-14
    assert np.max(np.abs(a.values)) == pytest.approx(1.0)
    # band limit: modes above the cutoff are zero
    sh = np.fft.fft2(a.values)
    m1, m2 = g.mode_numbers()
    outside = (np.abs(m1) > 4) | (np.abs(m2) > 4)
    assert np.max(np.abs(sh[outside])) < 1e-10 * np.max(np.abs(sh))


def test_random_divfree_field_is_divergence_free():
    g = Grid2D(32, 32)
    w = random_divfree_field(g, seed=5, cutoff=6)
    assert norms(divergence(w))["linf"] < 1e-12


@pytest.mark.parametrize("n1", [12, 16])
@pytest.mark.parametrize("planes", [(), (1,), (2,), (5,)])
def test_transform_pair_matches_scipy_bitwise(n1, planes):
    # scipy.fft is the oracle; n1 = 12 is not a power of two, so numpy's
    # own inverse scaling would round differently there
    g = Grid2D(n1, 20)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(planes + (g.n1, g.n2))
    coeffs = _rfft(values)
    assert np.array_equal(coeffs, scipy.fft.rfft2(values))
    # coefficients that are not the transform of a real field, too
    coeffs = coeffs + 1e-3 * rng.standard_normal(coeffs.shape)
    assert np.array_equal(_irfft(g, coeffs), scipy.fft.irfft2(coeffs, s=(g.n1, g.n2)))


@pytest.mark.parametrize("planes", [(), (3,)])
def test_derivative_symbols_match_their_expressions_bitwise(planes):
    g = Grid2D(12, 20)
    k1, k2 = _rfft_wavenumbers(g)
    rng = np.random.default_rng(8)
    shape = planes + (2, g.n1, g.n2 // 2 + 1)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = w[..., 0, :, :]
    assert np.array_equal(_grad_hat(g, v), np.stack((1j * k1 * v, 1j * k2 * v), axis=-3))
    want = 1j * (k1 * w[..., 0, :, :] + k2 * w[..., 1, :, :])
    assert np.array_equal(_div_hat(g, w), want)
