"""Periodic grids, sampled fields and spectral calculus on the 2-torus.

All differential operators are pseudo-spectral: exact (to rounding) for
band-limited data.  The Nyquist mode is zeroed on differentiation so that
derivatives of real fields stay real.  The operators here and the
evolve solver transform through `_rfft`/`_irfft` (rfft2 layout,
`numpy.fft`), which take stacked planes in one batched call.  They gave
the same bits as `scipy.fft.rfft2`/`irfft2` on every even grid checked
(all n1, n2 in 4..128, and n1 up to 514 against a few n2; numpy 2.4.6,
scipy 1.17.1).  `_irfft` runs irfft2 as its two axis passes, which give
irfft2's bits on the same grids, so that a caller that owns the
coefficients (`_gradient_planes`, for its derivative temporary) can have
the first pass written over them instead of into fresh memory.

A field stores its components as one (k, n1, n2) stack, `data`: one
plane for a scalar, two for a vector, four for a tensor.  Every batched
consumer reads that stack as it is (the transform pair here, the
bicubic kernel, the evolve right side and the dump payload), so the
layout is decided in this module alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NonFiniteError(ValueError):
    """A field holds NaN or inf."""


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
        # comparisons with nan are False: a nan period fails this test too
        if not (0.0 < self.len1 < np.inf and 0.0 < self.len2 < np.inf):
            raise ValueError("periods must be finite and positive")

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


@dataclass(frozen=True, init=False)
class _Field:
    """A field on `grid` whose k components, named in `components`, are
    the planes of one (k, n1, n2) float stack `data`, which every batched
    consumer reads as it is; the named attributes are views of those
    planes.  The constructor copies the k components, given positionally,
    into a new stack and checks each one's shape and finiteness."""

    grid: Grid2D
    data: np.ndarray
    components = ()

    def __init__(self, grid, *planes):
        kind, names = type(self).__name__, self.components
        if len(planes) != len(names):
            raise TypeError(f"{kind} takes {len(names)} components "
                            f"({', '.join(names)}), got {len(planes)}")
        data = np.empty((len(names), grid.n1, grid.n2))
        for name, plane, out in zip(names, planes, data):
            a = np.asarray(plane, dtype=float)
            if a.shape != out.shape:
                raise ValueError(f"{kind}.{name} shape does not match grid")
            if not np.all(np.isfinite(a)):
                raise NonFiniteError(f"{kind}.{name} contains non-finite values")
            out[...] = a
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "data", data)


class ScalarField(_Field):
    components = ("values",)
    values = property(lambda self: self.data[0])


class VectorField(_Field):
    components = ("comp1", "comp2")
    comp1 = property(lambda self: self.data[0])
    comp2 = property(lambda self: self.data[1])


class TensorField(_Field):
    components = ("t11", "t12", "t21", "t22")
    t11 = property(lambda self: self.data[0])
    t12 = property(lambda self: self.data[1])
    t21 = property(lambda self: self.data[2])
    t22 = property(lambda self: self.data[3])


@lru_cache(maxsize=32)
def _rfft_wavenumbers(grid: Grid2D):
    """Wavenumber columns/rows on the rfft2 layout, Nyquist zeroed."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.n1, d=grid.h1)
    k1[grid.n1 // 2] = 0.0
    k2 = 2.0 * np.pi * np.fft.rfftfreq(grid.n2, d=grid.h2)
    k2[-1] = 0.0
    return k1[:, None], k2[None, :]


@lru_cache(maxsize=32)
def _rfft_derivative_symbols(grid: Grid2D):
    """(1j*k1, 1j*k2), the symbols of d1 and d2 on the rfft2 layout."""
    # with these and their preallocated results, `_grad_hat`/`_div_hat` make
    # fewer temporaries; without them a 64^2 variable-density run was 4% slower
    k1, k2 = _rfft_wavenumbers(grid)
    return 1j * k1, 1j * k2


@lru_cache(maxsize=64)
def _rfft_mode_mask(grid: Grid2D):
    """Boolean keep-mask for |m1|, |m2| <= min(n1, n2) // 3 (the 2/3 rule)
    on the rfft2 layout."""
    cutoff = min(grid.n1, grid.n2) // 3
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
    # without `out`, numpy allocates a second array between the two axis
    # passes, which doubles the time of a 256^2 plane
    out = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), complex)
    return np.fft.rfft2(values, out=out)


def _irfft(grid, coeffs, overwrite=False):
    """Inverse of `_rfft` onto the grid, batched like it.  With
    `overwrite`, the first (complex, axis -2) pass is written over
    `coeffs`, which the caller must not read again."""
    n1, n2 = grid.n1, grid.n2
    # the two axis passes of irfft2, with its bits: irfft2 puts the first
    # pass in fresh memory, whose page faults took about half the time of
    # a 256^2 inverse; a caller that owns `coeffs` lends it instead.
    # Scale once by 1/(n1*n2) at the end, as scipy.fft does: numpy's
    # default scales by 1/n1 after the first pass and by 1/n2 after the
    # second, which rounds differently unless n1 is a power of two
    half = np.fft.ifft(coeffs, axis=-2, norm="forward", out=coeffs if overwrite else None)
    values = np.fft.irfft(half, n2, axis=-1, norm="forward")
    values *= 1.0 / (n1 * n2)
    return values


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


def _grad_hat(grid, vhat):
    """Gradient coefficients of each plane of `vhat`: a new axis of
    length 2 (d1, d2) is put before the last two."""
    ik1, ik2 = _rfft_derivative_symbols(grid)
    out = np.empty(vhat.shape[:-2] + (2,) + vhat.shape[-2:], complex)
    np.multiply(ik1, vhat, out=out[..., 0, :, :])
    np.multiply(ik2, vhat, out=out[..., 1, :, :])
    return out


def _div_hat(grid, vhat):
    """Divergence coefficients of a vector field given as (..., 2, n1, m)
    coefficients."""
    ik1, ik2 = _rfft_derivative_symbols(grid)
    out = ik1 * vhat[..., 0, :, :]
    out += ik2 * vhat[..., 1, :, :]
    return out


def _velocity_gradient(u: VectorField):
    """(d1 u1, d2 u1, d1 u2, d2 u2) as one (4, n1, n2) array, from one
    batched forward and one batched inverse transform."""
    return _gradient_planes(u.grid, _rfft(u.data))


def _gradient_planes(grid, vhat):
    """(d1, d2) of each plane of the rfft2 coefficients `vhat`, in turn, as
    one stack of planes from one batched inverse transform: (d1 u1, d2 u1,
    d1 u2, d2 u2) for the (2, n1, m) coefficients of a velocity.  The
    derivative coefficients are this function's own temporary, so the
    inverse transform overwrites them; `vhat` is left as it is."""
    dhat = _grad_hat(grid, vhat)
    return _irfft(grid, dhat.reshape((-1,) + dhat.shape[-2:]), overwrite=True)


def grad(s: ScalarField) -> VectorField:
    """Spectral gradient (d1 s, d2 s)."""
    d1, d2 = _gradient_planes(s.grid, _rfft(s.values))
    return VectorField(s.grid, d1, d2)


def perp_grad(s: ScalarField) -> VectorField:
    """Rotated gradient (-d2 s, d1 s); divergence-free by construction."""
    d1, d2 = _gradient_planes(s.grid, _rfft(s.values))
    return VectorField(s.grid, -d2, d1)


def divergence(v: VectorField) -> ScalarField:
    vhat = _rfft(v.data)
    return ScalarField(v.grid, _irfft(v.grid, _div_hat(v.grid, vhat)))


def curl2d(v: VectorField) -> ScalarField:
    """Scalar vorticity d1 v2 - d2 v1, the divergence of (v2, -v1)."""
    vhat = _rfft(v.data)[::-1]  # (v2, v1)
    vhat[1] *= -1.0
    return ScalarField(v.grid, _irfft(v.grid, _div_hat(v.grid, vhat)))


def norms(x) -> dict:
    """L2, Linf and homogeneous-H1 norms by trapezoid (= midpoint) quadrature."""
    if not isinstance(x, (ScalarField, VectorField)):
        raise TypeError("norms expects a ScalarField or VectorField")
    grads = _gradient_planes(x.grid, _rfft(x.data))
    da = x.grid.cell_area
    l2 = np.sqrt(np.sum(x.data * x.data) * da)
    linf = np.max(np.abs(x.data))
    h1 = np.sqrt(np.sum(grads * grads) * da)
    return {"l2": float(l2), "linf": float(linf), "h1_semi": float(h1)}


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
