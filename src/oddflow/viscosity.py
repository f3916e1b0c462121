"""Density-dependent shear and odd viscosity laws, strain tensors, stress.

The shear (even) law nu_e maps density into [mu_star, mu_upper]; the odd
law nu_o maps into [-mu_upper, mu_upper].  Both are checked by dense
sampling over the admissible density interval at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import (
    ScalarField,
    TensorField,
    VectorField,
    _velocity_gradient,
    divergence,
    norms,
)

_BOUND_SAMPLES = 10_000
_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class DensityBounds:
    rho_star: float
    rho_upper: float

    def __post_init__(self):
        if not 0 < self.rho_star <= self.rho_upper < np.inf:
            raise ValueError("density bounds must satisfy 0 < rho_star <= rho_upper < inf")

    def contains(self, rho: np.ndarray, tol=1e-12) -> bool:
        return bool(
            np.all(rho >= self.rho_star - tol) and np.all(rho <= self.rho_upper + tol)
        )


@dataclass(frozen=True)
class ViscosityLaw:
    nu_e: Callable[[np.ndarray], np.ndarray]
    nu_o: Callable[[np.ndarray], np.ndarray]
    mu_star: float
    mu_upper: float
    bounds: DensityBounds

    def __post_init__(self):
        # an infinite mu_upper bounds nothing, yet would pass as the
        # ellipticity report's upper bound
        if not (math.isfinite(self.mu_star) and math.isfinite(self.mu_upper)
                and 0 < self.mu_star <= self.mu_upper):
            raise ValueError("viscosity bounds must be finite and satisfy "
                             "0 < mu_star <= mu_upper")
        r = np.linspace(self.bounds.rho_star, self.bounds.rho_upper, _BOUND_SAMPLES)
        ve = np.asarray(self.nu_e(r), dtype=float) + np.zeros_like(r)
        vo = np.asarray(self.nu_o(r), dtype=float) + np.zeros_like(r)
        if np.any(ve < self.mu_star - _BOUND_TOL) or np.any(ve > self.mu_upper + _BOUND_TOL):
            raise ValueError("nu_e leaves [mu_star, mu_upper] on the density range")
        if np.any(np.abs(vo) > self.mu_upper + _BOUND_TOL):
            raise ValueError("nu_o leaves [-mu_upper, mu_upper] on the density range")

    def mu_e(self, rho: np.ndarray) -> np.ndarray:
        return np.asarray(self.nu_e(rho), dtype=float) + np.zeros_like(rho)

    def mu_o(self, rho: np.ndarray) -> np.ndarray:
        return np.asarray(self.nu_o(rho), dtype=float) + np.zeros_like(rho)


def parse_law_spec(spec: str) -> Callable[[np.ndarray], np.ndarray]:
    """Parse a viscosity function spec string.

    Supported forms: ``const:<v>``, ``affine:<a>,<b>`` (a + b*rho),
    ``prop:<c>`` (c*rho), ``table:<path>`` (two-column samples, linearly
    interpolated).  A non-finite coefficient or sample is rejected.
    """
    kind, _, arg = spec.partition(":")
    if kind == "const":
        (v,) = _finite_coefficients(spec, arg)
        return lambda r: v * np.ones_like(np.asarray(r, dtype=float))
    if kind == "affine":
        a, b = _finite_coefficients(spec, arg)
        return lambda r: a + b * np.asarray(r, dtype=float)
    if kind == "prop":
        (c,) = _finite_coefficients(spec, arg)
        return lambda r: c * np.asarray(r, dtype=float)
    if kind == "table":
        try:
            data = np.loadtxt(arg)
        except OSError as e:
            raise ValueError(f"viscosity table {arg!r} cannot be read: {e}") from e
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"viscosity table {arg!r} must have two columns")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"viscosity table {arg!r} holds a non-finite value")
        xs, ys = data[:, 0], data[:, 1]
        return lambda r: np.interp(np.asarray(r, dtype=float), xs, ys)
    raise ValueError(f"unknown viscosity spec {spec!r}")


def _finite_coefficients(spec, arg):
    values = [float(x) for x in arg.split(",")]
    if not all(np.isfinite(values)):
        raise ValueError(f"law spec {spec!r} has a non-finite coefficient")
    return values


def make_law(nu_e_spec: str, nu_o_spec: str, mu_star, mu_upper, bounds) -> ViscosityLaw:
    return ViscosityLaw(
        parse_law_spec(nu_e_spec), parse_law_spec(nu_o_spec), mu_star, mu_upper, bounds
    )


def strain_sym(u: VectorField) -> TensorField:
    """Symmetric rate of strain: the matrix with rows
    (2 d1u1, d2u1 + d1u2) and (d2u1 + d1u2, 2 d2u2)."""
    d1u1, d2u1, d1u2, d2u2 = _velocity_gradient(u)
    off = d2u1 + d1u2
    return TensorField(u.grid, 2.0 * d1u1, off, off, 2.0 * d2u2)


def strain_odd(u: VectorField) -> TensorField:
    """Odd strain: rows (-(d1u2 + d2u1), d1u1 - d2u2) and
    (d1u1 - d2u2, d1u2 + d2u1); symmetric and trace-free."""
    d1u1, d2u1, d1u2, d2u2 = _velocity_gradient(u)
    diag = d1u2 + d2u1
    off = d1u1 - d2u2
    return TensorField(u.grid, -diag, off, off, diag)


def viscous_stress(law: ViscosityLaw, rho: ScalarField, u: VectorField) -> TensorField:
    """sigma = nu_e(rho) * sym strain + nu_o(rho) * odd strain, pointwise."""
    if not law.bounds.contains(rho.values):
        raise ValueError("density leaves the admissible bounds")
    me = law.mu_e(rho.values)
    mo = law.mu_o(rho.values)
    s = strain_sym(u)
    o = strain_odd(u)
    return TensorField(u.grid, *(me * s.data + mo * o.data))


def _frobenius(a: TensorField, b: TensorField) -> np.ndarray:
    return np.sum(a.data * b.data, axis=0)


def check_pointwise_cancellation(u: VectorField) -> float:
    """Max over grid points of |odd strain : sym strain|.

    Vanishes identically for any velocity field, not only divergence-free
    ones.
    """
    return float(np.max(np.abs(_frobenius(strain_odd(u), strain_sym(u)))))


def check_weak_cancellation(u: VectorField, phi: VectorField) -> float:
    """|integral of odd strain(u) : sym strain(phi)| for divergence-free pairs."""
    for name, v in (("u", u), ("phi", phi)):
        if norms(divergence(v))["linf"] > 1e-8:
            raise ValueError(f"{name} is not divergence-free")
    integrand = _frobenius(strain_odd(u), strain_sym(phi))
    return abs(float(np.sum(integrand) * u.grid.cell_area))
