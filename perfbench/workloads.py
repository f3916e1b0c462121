"""The benchmark's workloads: inputs built with oddflow's constructors from
the seed, the solve a user would time, and the artifacts the CLI writes.

Everything reaches oddflow through module attributes (`evolve.run`,
`io.write_csv`, ...), so the wrappers the tracer installs see each call.
"""

from __future__ import annotations

import os

import numpy as np

from oddflow import evolve, io, stationary
from oddflow.fields import Grid2D, ScalarField, random_divfree_field, random_scalar_field
from oddflow.viscosity import DensityBounds, make_law

BOUNDS = (0.5, 1.5)
MU_STAR, MU_UPPER = 0.5, 2.0

# Why each workload is here: see README.md.  The run lengths keep one solve
# between 0.5 and 1.5 s on one core, so a run holds tens of solves.
EVOLVE = {
    # The README example: variable density, variable shear and odd laws.
    "evolve-var-64": dict(n=64, nu_e="affine:0.75,0.5", nu_o="prop:0.5",
                          rho_amp=0.45, t_end=0.02),
    # Constant density and laws on a large grid.
    "evolve-uniform-256": dict(n=256, nu_e="const:1.0", nu_o="const:0.5",
                               rho_amp=0.0, t_end=3e-4),
}
DT = 6e-4
VELOCITY_CUTOFF, DENSITY_CUTOFF = 4, 3

STATIONARY = {
    # The manufactured solution at nx = 63, default picard_solve.  At
    # nx = 127 one solve takes about 15 s, and a run would hold one or two.
    "stationary-mms-63": dict(nx=63, nu_e="affine:0.75,0.5", nu_o="prop:0.5"),
}
ETA_A, ETA_B, ETA_MAX = 1.0, 1.0, 2.0

NAMES = tuple(EVOLVE) + tuple(STATIONARY)


def mms_amplitude(seed):
    """Amplitude of the manufactured stream function, drawn from the seed.

    Picard takes the same 16 iterations anywhere in [95, 105].
    """
    return float(np.random.default_rng(seed).uniform(95.0, 105.0))


def _bounds():
    return DensityBounds(*BOUNDS)


def build_evolve(name, seed):
    """(EvolveConfig, InitialData) of an evolve workload."""
    spec = EVOLVE[name]
    grid = Grid2D(spec["n"], spec["n"])
    bounds = _bounds()
    law = make_law(spec["nu_e"], spec["nu_o"], MU_STAR, MU_UPPER, bounds)
    config = evolve.EvolveConfig(grid, DT, spec["t_end"], law, bounds)
    u0 = random_divfree_field(grid, seed, VELOCITY_CUTOFF)
    if spec["rho_amp"]:
        pert = random_scalar_field(grid, seed + 1, DENSITY_CUTOFF).values
        rho0 = ScalarField(grid, 1.0 + spec["rho_amp"] * pert)
    else:
        rho0 = ScalarField(grid, np.ones((grid.n1, grid.n2)))
    return config, evolve.InitialData(rho0, u0)


def build_stationary(name, force_path):
    """StationaryProblem of a stationary workload; the forcing comes from
    the oracle, which wrote it to `force_path` (.npy, mid grid)."""
    spec = STATIONARY[name]
    domain = stationary.RectDomain(spec["nx"], spec["nx"])
    law = make_law(spec["nu_e"], spec["nu_o"], MU_STAR, MU_UPPER, _bounds())
    eta = stationary.eta_affine(ETA_A, ETA_B, ETA_MAX)
    force2 = np.load(force_path)
    return stationary.StationaryProblem(
        domain, law, eta, np.zeros_like(force2), force2,
        stationary.homogeneous_boundary(domain),
    )


def build(name, seed, inputs_dir):
    if name in EVOLVE:
        return build_evolve(name, seed)
    return build_stationary(name, os.path.join(inputs_dir, "force2.npy"))


def solve_evolve(config, data, out):
    """evolve.run to t_end, then the artifacts `oddflow evolve` writes."""
    states, ledger = evolve.run(config, data)
    final = states[-1]
    io.write_field(os.path.join(out, "density.odf"), final.rho, time=final.t)
    io.write_field(os.path.join(out, "velocity.odf"), final.u, time=final.t)
    io.write_field(os.path.join(out, "pressure.odf"), final.pressure, time=final.t)
    rows = [
        (t, k, d, w, ledger.balance_defect(i))
        for i, (t, k, d, w) in enumerate(
            zip(ledger.times, ledger.kinetic, ledger.dissipation, ledger.work)
        )
    ]
    io.write_csv(os.path.join(out, "energy.csv"),
                 ["t", "kinetic", "dissipation", "work", "balance_defect"], rows)


def solve_stationary(problem, out):
    """picard_solve to its default tol, then the artifacts `oddflow
    stationary` writes.  Its .odf dumps need an even node count, and the
    63 + 2 nodes are odd, so the solution goes to CSV instead."""
    sol = stationary.picard_solve(problem)
    io.write_csv(os.path.join(out, "iterations.csv"), ["k", "update_norm"],
                 [(k + 1, v) for k, v in enumerate(sol.update_history)])
    n1, n2 = sol.phi.shape
    i, j = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    io.write_csv(os.path.join(out, "solution.csv"), ["i", "j", "phi", "u1", "u2"],
                 zip(i.ravel().tolist(), j.ravel().tolist(), sol.phi.ravel(),
                     sol.u1.ravel(), sol.u2.ravel()))


def solve(name, inputs, out):
    if name in EVOLVE:
        solve_evolve(*inputs, out)
    else:
        solve_stationary(inputs, out)
