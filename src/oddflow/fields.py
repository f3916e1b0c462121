"""Periodic grids, sampled fields and spectral calculus on the 2-torus.

All differential operators are pseudo-spectral: exact (to rounding) for
band-limited data.  The Nyquist mode is zeroed on differentiation so that
derivatives of real fields stay real.  The operators here and the
evolve solver transform through `_rfft`/`_irfft` (rfft2 layout,
`scipy.fft`), which take stacked planes in one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft


class NonFiniteError(ValueError):
    """A field holds NaN or inf."""


def _check_finite(name, a):
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains non-finite values")


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid on [0, len1) x [0, len2)."""

    n1: int
    n2: int
    len1: float = 2.0 * np.pi
    len2: float = 2.0 * np.pi

    def __post_init__(self):
        for n in (self.n1, self.n2):
            if n < 4 or n % 2 != 0:
                raise ValueError("grid sizes must be even and >= 4")
        if self.len1 <= 0 or self.len2 <= 0:
            raise ValueError("periods must be positive")

    @property
    def h1(self):
        return self.len1 / self.n1

    @property
    def h2(self):
        return self.len2 / self.n2

    @property
    def cell_area(self):
        return self.h1 * self.h2

    def coords(self):
        """Node coordinates as two (n1, n2) arrays."""
        x1 = np.arange(self.n1) * self.h1
        x2 = np.arange(self.n2) * self.h2
        return np.meshgrid(x1, x2, indexing="ij")

    def mode_numbers(self):
        """Integer mode indices (m1, m2) on the fft2 layout."""
        m1 = np.fft.fftfreq(self.n1, d=1.0 / self.n1)
        m2 = np.fft.fftfreq(self.n2, d=1.0 / self.n2)
        return np.meshgrid(m1, m2, indexing="ij")


@dataclass(frozen=True)
class ScalarField:
    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n1, self.grid.n2):
            raise ValueError("values shape does not match grid")
        _check_finite("scalar field", v)
        object.__setattr__(self, "values", v)

    def mean(self):
        return float(np.mean(self.values))


@dataclass(frozen=True)
class VectorField:
    grid: Grid2D
    comp1: np.ndarray
    comp2: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n1, self.grid.n2)
        for name in ("comp1", "comp2"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name} shape does not match grid")
            _check_finite(name, a)
            object.__setattr__(self, name, a)

    def perp(self):
        """Rotate by 90 degrees: (u1, u2) -> (-u2, u1)."""
        return VectorField(self.grid, -self.comp2, self.comp1)


@dataclass(frozen=True)
class TensorField:
    grid: Grid2D
    t11: np.ndarray
    t12: np.ndarray
    t21: np.ndarray
    t22: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n1, self.grid.n2)
        for name in ("t11", "t12", "t21", "t22"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name} shape does not match grid")
            _check_finite(name, a)
            object.__setattr__(self, name, a)


@lru_cache(maxsize=32)
def _rfft_wavenumbers(grid: Grid2D):
    """Wavenumber columns/rows on the rfft2 layout, Nyquist zeroed."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.n1, d=grid.h1)
    k1[grid.n1 // 2] = 0.0
    k2 = 2.0 * np.pi * np.fft.rfftfreq(grid.n2, d=grid.h2)
    k2[-1] = 0.0
    return k1[:, None], k2[None, :]


@lru_cache(maxsize=64)
def _rfft_mode_mask(grid: Grid2D, cutoff: int):
    """Boolean keep-mask for |m1|, |m2| <= cutoff on the rfft2 layout."""
    m1 = np.abs(np.fft.fftfreq(grid.n1, d=1.0 / grid.n1))
    m2 = np.arange(grid.n2 // 2 + 1)
    return (m1[:, None] <= cutoff) & (m2[None, :] <= cutoff)


@lru_cache(maxsize=32)
def _rfft_laplacian_symbol(grid: Grid2D):
    """|k|^2 on the rfft2 layout with the full (unzeroed) Nyquist modes."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.n1, d=grid.h1)
    k2 = 2.0 * np.pi * np.fft.rfftfreq(grid.n2, d=grid.h2)
    return k1[:, None] ** 2 + k2[None, :] ** 2


def _rfft(values):
    """rfft2 over the last two axes; stacked planes go in one call."""
    return scipy.fft.rfft2(values)


def _irfft(grid, coeffs):
    """Inverse of `_rfft` onto the grid, batched like it."""
    return scipy.fft.irfft2(coeffs, s=(grid.n1, grid.n2))


def _rfft_inner(grid, ahat, bhat):
    """sum(a * b) over the grid of two real fields, from their rfft2
    coefficients by Parseval."""
    # a row of the float view holds (re, im) pairs, so summed products
    # give Re(conj(a) b); columns 0 and n2/2 count once, every other
    # column twice, for itself and its conjugate mirror
    a, b = ahat.view(float), bhat.view(float)
    total = (2.0 * np.einsum("ij,ij->", a, b)
             - np.einsum("ij,ij->", a[:, :2], b[:, :2])
             - np.einsum("ij,ij->", a[:, -2:], b[:, -2:]))
    return float(total) / (grid.n1 * grid.n2)


def _deriv(grid, values, axis):
    k1, k2 = _rfft_wavenumbers(grid)
    k = k1 if axis == 0 else k2
    return _irfft(grid, 1j * k * _rfft(values))


def _grad_hat(grid, vhat):
    """Gradient coefficients of each plane of `vhat`: a new axis of
    length 2 (d1, d2) is put before the last two."""
    k1, k2 = _rfft_wavenumbers(grid)
    return np.stack((1j * k1 * vhat, 1j * k2 * vhat), axis=-3)


def _div_hat(grid, vhat):
    """Divergence coefficients of a vector field given as (..., 2, n1, m)
    coefficients."""
    k1, k2 = _rfft_wavenumbers(grid)
    return 1j * (k1 * vhat[..., 0, :, :] + k2 * vhat[..., 1, :, :])


def _velocity_gradient(u: VectorField):
    """(d1 u1, d2 u1, d1 u2, d2 u2) as one (4, n1, n2) array, from one
    batched forward and one batched inverse transform."""
    g = u.grid
    dhat = _grad_hat(g, _rfft(np.stack((u.comp1, u.comp2))))
    return _irfft(g, dhat.reshape((4,) + dhat.shape[2:]))


def grad(s: ScalarField) -> VectorField:
    """Spectral gradient (d1 s, d2 s)."""
    return VectorField(s.grid, _deriv(s.grid, s.values, 0), _deriv(s.grid, s.values, 1))


def perp_grad(s: ScalarField) -> VectorField:
    """Rotated gradient (-d2 s, d1 s); divergence-free by construction."""
    return VectorField(s.grid, -_deriv(s.grid, s.values, 1), _deriv(s.grid, s.values, 0))


def divergence(v: VectorField) -> ScalarField:
    return ScalarField(v.grid, _deriv(v.grid, v.comp1, 0) + _deriv(v.grid, v.comp2, 1))


def curl2d(v: VectorField) -> ScalarField:
    """Scalar vorticity d1 v2 - d2 v1."""
    return ScalarField(v.grid, _deriv(v.grid, v.comp2, 0) - _deriv(v.grid, v.comp1, 1))


def inv_laplacian(s: ScalarField) -> ScalarField:
    """Periodic inverse Laplacian with the zero-mean convention.

    The mean of the input is dropped before inversion; the output has zero
    mean.
    """
    g = s.grid
    ksq = _rfft_laplacian_symbol(g).copy()  # the cached symbol is shared
    ksq[0, 0] = 1.0
    shat = _rfft(s.values)
    shat[0, 0] = 0.0
    return ScalarField(g, _irfft(g, -shat / ksq))


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part: v - grad(invlap(div v))."""
    p = inv_laplacian(divergence(v))
    gp = grad(p)
    return VectorField(v.grid, v.comp1 - gp.comp1, v.comp2 - gp.comp2)


def norms(x) -> dict:
    """L2, Linf and homogeneous-H1 norms by trapezoid (= midpoint) quadrature."""
    if isinstance(x, ScalarField):
        comps = [x.values]
        grads = [grad(x)]
        grid = x.grid
    elif isinstance(x, VectorField):
        comps = [x.comp1, x.comp2]
        grads = [
            grad(ScalarField(x.grid, x.comp1)),
            grad(ScalarField(x.grid, x.comp2)),
        ]
        grid = x.grid
    else:
        raise TypeError("norms expects a ScalarField or VectorField")
    da = grid.cell_area
    l2 = np.sqrt(sum(np.sum(c * c) for c in comps) * da)
    linf = max(np.max(np.abs(c)) for c in comps)
    h1 = np.sqrt(
        sum(np.sum(g.comp1**2 + g.comp2**2) for g in grads) * da
    )
    return {"l2": float(l2), "linf": float(linf), "h1_semi": float(h1)}


def l2_inner(a, b, grid):
    """Discrete L2 inner product of two plain arrays on a grid."""
    return float(np.sum(a * b) * grid.cell_area)


def random_scalar_field(grid: Grid2D, seed: int, cutoff: int) -> ScalarField:
    """Random mean-zero band-limited scalar field, deterministic in seed."""
    if cutoff >= min(grid.n1, grid.n2) // 3:
        raise ValueError("cutoff must be < min(n1, n2)/3")
    rng = np.random.default_rng(seed)
    shat = np.zeros((grid.n1, grid.n2), dtype=complex)
    if cutoff > 0:
        m1, m2 = grid.mode_numbers()
        mask = (np.abs(m1) <= cutoff) & (np.abs(m2) <= cutoff)
        mask[0, 0] = False
        coeff = rng.standard_normal(shat.shape) + 1j * rng.standard_normal(shat.shape)
        shat[mask] = coeff[mask]
        # Hermitian symmetrization keeps the field real.
        shat = 0.5 * (shat + np.conj(shat[_reflect(grid.n1), :][:, _reflect(grid.n2)]))
    vals = np.real(np.fft.ifft2(shat)) * grid.n1 * grid.n2
    scale = np.max(np.abs(vals))
    if scale > 0:
        vals = vals / scale
    return ScalarField(grid, vals)


def _reflect(n):
    idx = np.zeros(n, dtype=int)
    idx[1:] = np.arange(n - 1, 0, -1)
    return idx


def random_divfree_field(grid: Grid2D, seed: int, cutoff: int) -> VectorField:
    """perp_grad of a random band-limited stream function; divergence-free."""
    return perp_grad(random_scalar_field(grid, seed, cutoff))
