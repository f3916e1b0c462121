"""Spectral oracles shared by the field and evolve tests.

Only tests use these: the periodic inverse Laplacian with the zero-mean
convention and the Leray projection built on it.
"""

from oddflow.fields import (
    ScalarField,
    VectorField,
    _irfft,
    _rfft,
    _rfft_laplacian_symbol,
    divergence,
    grad,
)


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
