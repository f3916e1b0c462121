"""Command-line entry point: experiment runners and the invariant suite.

Subcommands: evolve, stationary, symmetric, sweep-odd-limit, verify.
Configuration is a plain ``key = value`` text file; unknown keys are
rejected.  All artifacts are deterministic for fixed config and seed.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
or input, 3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as fio
from . import viscosity
from .evolve import EvolveConfig, InitialData, odd_limit_sweep, run
from .fields import (
    Grid2D,
    ScalarField,
    TensorField,
    VectorField,
    random_divfree_field,
    random_scalar_field,
)
from .viscosity import (
    DensityBounds,
    check_pointwise_cancellation,
    check_weak_cancellation,
    make_law,
    parse_law_spec,
    strain_odd,
    strain_sym,
)


class ConfigError(ValueError):
    pass


_REQUIRED = object()


def load_config(path):
    """Parse a plain-text key = value file; '#' starts a comment."""
    raw = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = text.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def apply_schema(raw, schema):
    """Cast raw string values per schema {key: (cast, default)}.

    Unknown keys and missing required keys are configuration errors.
    """
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    out = {}
    for key, (cast, default) in schema.items():
        if key in raw:
            try:
                out[key] = cast(raw[key])
            except ValueError as e:
                raise ConfigError(f"config key {key!r}: {e}") from e
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            out[key] = default
    return out


def _floats(text):
    return tuple(float(x) for x in text.split(","))


def _config_from(args, schema):
    raw = load_config(args.config) if args.config else {}
    return apply_schema(raw, schema)


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _bounds_and_law(cfg):
    bounds = DensityBounds(cfg["rho_min"], cfg["rho_max"])
    law = make_law(cfg["nu_e"], cfg["nu_o"], cfg["mu_star"], cfg["mu_upper"], bounds)
    return bounds, law


# -------------------------------------------------------------- evolve

_EVOLVE_SCHEMA = {
    "n": (int, 64),
    "length": (float, 2.0 * np.pi),
    "dt": (float, _REQUIRED),
    "t_end": (float, _REQUIRED),
    "nu_e": (str, "const:1.0"),
    "nu_o": (str, "const:0.0"),
    "mu_star": (float, 0.5),
    "mu_upper": (float, 2.0),
    "rho_min": (float, 0.5),
    "rho_max": (float, 1.5),
    "init_velocity": (str, "taylor-green"),
    "init_density": (str, "const"),
    "amplitude": (float, 1.0),
    "density_cutoff": (int, 3),
    "velocity_cutoff": (int, 4),
}


def _initial_data(cfg, grid, bounds, seed):
    kind = cfg["init_velocity"]
    if kind == "zero":
        u0 = VectorField(grid, np.zeros((grid.n1, grid.n2)), np.zeros((grid.n1, grid.n2)))
    elif kind == "taylor-green":
        x1, x2 = grid.coords()
        a1 = 2.0 * np.pi / grid.len1
        a2 = 2.0 * np.pi / grid.len2
        u0 = VectorField(
            grid,
            cfg["amplitude"] * np.sin(a1 * x1) * np.cos(a2 * x2),
            -cfg["amplitude"] * np.cos(a1 * x1) * np.sin(a2 * x2),
        )
    elif kind == "random":
        w = random_divfree_field(grid, seed, cfg["velocity_cutoff"])
        u0 = VectorField(grid, *(cfg["amplitude"] * w.data))
    else:
        raise ConfigError(f"config key 'init_velocity': unknown value {kind!r}")

    mid = 0.5 * (bounds.rho_star + bounds.rho_upper)
    if cfg["init_density"] == "const":
        rho0 = ScalarField(grid, np.full((grid.n1, grid.n2), mid))
    elif cfg["init_density"] == "perturbed":
        pert = random_scalar_field(grid, seed + 1, cfg["density_cutoff"])
        amp = 0.45 * (bounds.rho_upper - bounds.rho_star)
        rho0 = ScalarField(grid, mid + amp * pert.values)
    else:
        raise ConfigError(
            f"config key 'init_density': unknown value {cfg['init_density']!r}"
        )
    return InitialData(rho0, u0)


def cmd_evolve(args):
    cfg = _config_from(args, _EVOLVE_SCHEMA)
    out = _outdir(args)
    grid = Grid2D(cfg["n"], cfg["n"], cfg["length"], cfg["length"])
    bounds, law = _bounds_and_law(cfg)
    config = EvolveConfig(grid, cfg["dt"], cfg["t_end"], law, bounds)
    data = _initial_data(cfg, grid, bounds, args.seed)
    states, ledger = run(config, data)
    final = states[-1]
    fio.write_field(os.path.join(out, "density.odf"), final.rho, time=final.t)
    fio.write_field(os.path.join(out, "velocity.odf"), final.u, time=final.t)
    fio.write_field(os.path.join(out, "pressure.odf"), final.pressure, time=final.t)
    rows = [
        (t, k, d, w, ledger.balance_defect(i))
        for i, (t, k, d, w) in enumerate(
            zip(ledger.times, ledger.kinetic, ledger.dissipation, ledger.work)
        )
    ]
    fio.write_csv(
        os.path.join(out, "energy.csv"),
        ["t", "kinetic", "dissipation", "work", "balance_defect"],
        rows,
    )
    print(f"evolve: {len(ledger.times) - 1} steps to t = {final.t:g}, "
          f"artifacts in {out}")
    return 0


# ----------------------------------------------------------- stationary

_STATIONARY_SCHEMA = {
    "n": (int, 32),
    "length": (float, 1.0),
    "nu_e": (str, "const:1.0"),
    "nu_o": (str, "const:0.0"),
    "mu_star": (float, 0.5),
    "mu_upper": (float, 2.0),
    "rho_min": (float, 0.5),
    "rho_max": (float, 1.5),
    "eta": (str, "const:1.0"),
    "eta_max": (float, 2.0),
    "boundary_file": (str, ""),
    "damping": (float, 1.0),
    "tol": (float, 1e-9),
    "max_iter": (int, 60),
}

_BOUNDARY_SCHEMA = {
    "bottom_n": (float, 0.0), "bottom_t": (float, 0.0),
    "right_n": (float, 0.0), "right_t": (float, 0.0),
    "top_n": (float, 0.0), "top_t": (float, 0.0),
    "left_n": (float, 0.0), "left_t": (float, 0.0),
}


def _boundary_from_file(domain, path):
    """Per-side constant boundary velocity, given by normal and tangential
    components.  Corner points belong to the side that owns them in the
    counterclockwise walk (bottom first, then right, top, left)."""
    from .stationary import boundary_data_from_g

    side_cfg = apply_schema(load_config(path), _BOUNDARY_SCHEMA)
    lx, ly = domain.lx, domain.ly
    frames = {
        # side: (outward normal, ccw tangent)
        "bottom": ((0.0, -1.0), (1.0, 0.0)),
        "right": ((1.0, 0.0), (0.0, 1.0)),
        "top": ((0.0, 1.0), (-1.0, 0.0)),
        "left": ((-1.0, 0.0), (0.0, -1.0)),
    }

    def g(x, y):
        if y == 0.0:
            side = "bottom"
        elif x == lx:
            side = "right"
        elif y == ly:
            side = "top"
        else:
            side = "left"
        (n1, n2), (t1, t2) = frames[side]
        gn = side_cfg[side + "_n"]
        gt = side_cfg[side + "_t"]
        return (gn * n1 + gt * t1, gn * n2 + gt * t2)

    return boundary_data_from_g(domain, g)


def cmd_stationary(args):
    from .stationary import (
        EtaFunction,
        PicardError,
        RectDomain,
        StationaryProblem,
        ellipticity_check,
        homogeneous_boundary,
        picard_solve,
    )

    cfg = _config_from(args, _STATIONARY_SCHEMA)
    out = _outdir(args)
    if cfg["n"] % 2 != 0:
        raise ConfigError("config key 'n': must be even for the field dumps")
    domain = RectDomain(cfg["n"], cfg["n"], cfg["length"], cfg["length"])
    bounds, law = _bounds_and_law(cfg)
    eta = EtaFunction(parse_law_spec(cfg["eta"]), cfg["eta_max"])
    boundary = (
        _boundary_from_file(domain, cfg["boundary_file"])
        if cfg["boundary_file"]
        else homogeneous_boundary(domain)
    )
    shape = (domain.nx + 2, domain.ny + 2)
    problem = StationaryProblem(domain, law, eta, np.zeros(shape), np.zeros(shape),
                                boundary)
    try:
        sol = picard_solve(problem, damping=cfg["damping"], tol=cfg["tol"],
                           max_iter=cfg["max_iter"])
    except PicardError as e:
        print(f"stationary: {e}", file=sys.stderr)
        return 3
    # the dumps hold the boundary nodes too, so their period is one h past lx
    dump_grid = Grid2D(domain.nx + 2, domain.ny + 2,
                       (domain.nx + 2) * domain.h, (domain.ny + 2) * domain.h)
    fio.write_field(os.path.join(out, "phi.odf"), ScalarField(dump_grid, sol.phi))
    fio.write_field(os.path.join(out, "velocity.odf"),
                    VectorField(dump_grid, sol.u1, sol.u2))
    fio.write_csv(
        os.path.join(out, "iterations.csv"),
        ["k", "update_norm"],
        [(k + 1, v) for k, v in enumerate(sol.update_history)],
    )
    rng = np.random.default_rng(args.seed)
    rho_samples = rng.uniform(bounds.rho_star, bounds.rho_upper, 100)
    xi_samples = rng.standard_normal((100, 4))
    rep = ellipticity_check(law, rho_samples, xi_samples)
    fio.write_csv(
        os.path.join(out, "ellipticity.csv"),
        ["rayleigh_min", "rayleigh_max", "odd_form_max", "lower_bound", "upper_bound"],
        [(rep["rayleigh_min"], rep["rayleigh_max"], rep["odd_form_max"],
          rep["lower_bound"], rep["upper_bound"])],
    )
    print(f"stationary: converged in {sol.iterations} iterations "
          f"(final update {sol.update_history[-1]:.3e}), artifacts in {out}")
    return 0


# ------------------------------------------------------------ symmetric

_SYMMETRIC_SCHEMA = {
    "symmetry": (str, ""),
    "rho": (str, "const:1.0"),
    "nu_e": (str, "const:1.0"),
    "nu_o": (str, "const:0.0"),
    "mu_star": (float, 0.5),
    "mu_upper": (float, 2.0),
    "rho_min": (float, 0.5),
    "rho_max": (float, 1.5),
    "C": (float, 0.0),
    "C1": (float, 0.0),
    "a": (float, 0.0),
    "b": (float, 1.0),
    "u_a": (float, 0.0),
    "u_b": (float, 1.0),
    "r_in": (float, 1.0),
    "r_out": (float, 2.0),
    "g_in": (float, 0.0),
    "mode": (str, "pressure_absorbed"),
    "n": (int, 257),
    "collocation_n": (int, 64),
}


def cmd_symmetric(args):
    from .symmetric import (
        ConcentricProblem,
        ParallelProblem,
        RadialProblem,
        radial_nonexistence_demo,
        solve_concentric,
        solve_parallel,
        solve_radial,
        verify_full_momentum,
    )

    cfg = _config_from(args, _SYMMETRIC_SCHEMA)
    out = _outdir(args)
    if args.demo == "nonexistence":
        report = radial_nonexistence_demo(C=cfg["C"] or 1.0)
        fio.write_csv(
            os.path.join(out, "nonexistence.csv"),
            ["n", "residual", "h1_seminorm"],
            [(r["n"], r["residual"], r["h1_seminorm"]) for r in report],
        )
        rescue = radial_nonexistence_demo(C=cfg["C"] or 1.0, mu_e=0.1, levels=(128,))
        fio.write_csv(
            os.path.join(out, "nonexistence_rescue.csv"),
            ["n", "residual", "h1_seminorm"],
            [(r["n"], r["residual"], r["h1_seminorm"]) for r in rescue],
        )
        print("symmetric: nonexistence refinement table written to "
              f"{os.path.join(out, 'nonexistence.csv')}")
        return 0

    bounds, law = _bounds_and_law(cfg)
    rho_profile = parse_law_spec(cfg["rho"])
    symmetry = cfg["symmetry"]
    if symmetry == "parallel":
        problem = ParallelProblem(rho_profile, law, cfg["C"], cfg["a"], cfg["b"],
                                  cfg["u_a"], cfg["u_b"], cfg["mode"], cfg["n"])
        sol = solve_parallel(problem)
        header = ["x2", "u1", "beta"]
        rows = list(zip(sol.nodes, sol.profile, sol.pressure["beta"]))
    elif symmetry == "concentric":
        problem = ConcentricProblem(rho_profile, law, cfg["C"], cfg["C1"],
                                    cfg["r_in"], cfg["r_out"], cfg["g_in"], cfg["n"])
        sol = solve_concentric(problem)
        header = ["r", "g", "beta"]
        rows = list(zip(sol.nodes, sol.profile, sol.pressure["beta"]))
    elif symmetry == "radial":
        problem = RadialProblem(rho_profile, law, cfg["C"], cfg["collocation_n"])
        sol = solve_radial(problem)
        header = ["theta", "h", "pi_theta_part"]
        rows = list(zip(sol.nodes, sol.profile, sol.pressure["pi_theta_part"]))
    else:
        raise ConfigError(f"config key 'symmetry': unknown value {symmetry!r}")

    fio.write_csv(os.path.join(out, "profile.csv"), header, rows)
    residual = verify_full_momentum(sol, problem)
    fio.write_csv(os.path.join(out, "residual.csv"),
                  ["full_momentum_linf"], [(residual,)])
    print(f"symmetric: {symmetry} profile written, "
          f"full-momentum residual {residual:.3e}")
    return 0


# -------------------------------------------------------- sweep-odd-limit

# the evolve keys with the odd law replaced by c0 + eps*sin(rho)
_SWEEP_SCHEMA = {
    **{k: v for k, v in _EVOLVE_SCHEMA.items() if k != "nu_o"},
    "c0": (float, 0.5),
    "eps": (_floats, (0.4, 0.2, 0.1, 0.05)),
    "init_velocity": (str, "random"),
    "init_density": (str, "perturbed"),
}


def cmd_sweep(args):
    cfg = _config_from(args, _SWEEP_SCHEMA)
    out = _outdir(args)
    grid = Grid2D(cfg["n"], cfg["n"], cfg["length"], cfg["length"])
    bounds = DensityBounds(cfg["rho_min"], cfg["rho_max"])
    law = make_law(cfg["nu_e"], f"const:{cfg['c0']}", cfg["mu_star"],
                   cfg["mu_upper"], bounds)
    config = EvolveConfig(grid, cfg["dt"], cfg["t_end"], law, bounds)
    data = _initial_data(cfg, grid, bounds, args.seed)
    rows = odd_limit_sweep(config, data, list(cfg["eps"]), cfg["c0"])
    fio.write_csv(os.path.join(out, "sweep.csv"), ["eps", "l2_distance"], rows)
    print(f"sweep-odd-limit: {len(rows)} runs, table in "
          f"{os.path.join(out, 'sweep.csv')}")
    return 0


# ---------------------------------------------------------------- verify

def _check_pointwise(seed):
    grid = Grid2D(64, 64)
    worst = 0.0
    for k in range(10):
        u = random_divfree_field(grid, seed + k, cutoff=8)
        s = strain_sym(u)
        scale = max(np.max(np.abs(c)) for c in (s.t11, s.t12, s.t22)) ** 2
        worst = max(worst, check_pointwise_cancellation(u) / max(scale, 1e-300))
    return worst, 1e-12


def _check_weak(seed):
    grid = Grid2D(64, 64)
    worst = 0.0
    for k in range(10):
        u = random_divfree_field(grid, seed + k, cutoff=8)
        phi = random_divfree_field(grid, seed + 100 + k, cutoff=8)
        worst = max(worst, check_weak_cancellation(u, phi))
    return worst, 1e-10


def _check_ellipticity(seed):
    from .stationary import ellipticity_check

    bounds = DensityBounds(0.5, 1.5)
    law = make_law("affine:0.75,0.5", "prop:0.5", 0.5, 2.0, bounds)
    rng = np.random.default_rng(seed)
    rep = ellipticity_check(law, rng.uniform(0.5, 1.5, 50),
                            rng.standard_normal((50, 4)))
    in_bounds = (rep["rayleigh_min"] >= rep["lower_bound"] - 1e-12
                 and rep["rayleigh_max"] <= rep["upper_bound"] + 1e-12)
    defect = rep["odd_form_max"] + (0.0 if in_bounds else 1.0)
    return defect, 1e-12


def _check_a_const(seed):
    from .stationary import RectDomain, _apply_operator

    # the stencils picard_solve runs; they cancel to rounding at the
    # operator's 1/h^4 scale, so the odd image is measured against the
    # even one of the same coefficient
    domain = RectDomain(16, 16)
    mu = np.full((16 + 2, 16 + 2), 0.7)
    phi = np.random.default_rng(seed).standard_normal((16 + 4, 16 + 4))
    odd = _apply_operator(domain, 0.0, mu, phi)
    even = _apply_operator(domain, mu, 0.0, phi)
    return float(np.linalg.norm(odd)) / float(np.linalg.norm(even)), 1e-12


def _const_odd_spread(solve, problem):
    """Largest deviation of `solve(problem(rho, law)).profile` between the
    constant odd laws -1, 0 and 1, on unit density."""
    bounds = DensityBounds(0.5, 1.5)

    def unit(s):
        return np.ones_like(np.asarray(s, dtype=float))

    profiles = [
        solve(problem(unit, make_law("const:1.0", f"const:{vo}", 0.5, 2.0, bounds))).profile
        for vo in (-1.0, 0.0, 1.0)
    ]
    return max(float(np.max(np.abs(q - profiles[0]))) for q in profiles[1:])


def _check_radial_invariance(seed):
    from .symmetric import RadialProblem, solve_radial

    return _const_odd_spread(
        solve_radial, lambda rho, law: RadialProblem(rho, law, 5.0, 64)), 1e-10


def _check_concentric_independence(seed):
    from .symmetric import ConcentricProblem, solve_concentric

    return _const_odd_spread(
        solve_concentric,
        lambda rho, law: ConcentricProblem(rho, law, 0.0, 1.0, 1.0, 2.0, n=65)), 1e-12


def _check_parallel_strict(seed):
    from .symmetric import ParallelProblem, solve_parallel

    bounds = DensityBounds(0.5, 1.5)
    # Couette (C = 0) with variable mu_e but constant nu_o / nu_e:
    # mu_o u' = C1 nu_o / nu_e is constant, so the strict-mode
    # incompatibility must vanish.
    law = make_law("prop:1.0", "prop:0.5", 0.5, 2.0, bounds)
    p = ParallelProblem(
        lambda s: 1.0 + 0.3 * np.asarray(s, dtype=float),
        law, 0.0, 0.0, 1.0, 0.0, 1.0, mode="strict", n=129,
    )
    sol = solve_parallel(p)
    return sol.extras["incompatibility"], 1e-10


def _steady_shear_defects():
    """Drift of u and rho, and the defect of the recovered pressure, of
    an exact variable-density steady state run to t = 0.2 on 32^2.

    rho = 1 + 0.3 cos x2 and u = (U, 0) with U = sin x2, forced by
    f1 = -d2(mu_e(rho) U') / rho: transport and advection vanish, and the
    odd stress is a pure x2-gradient, so the state is steady with the
    pressure beta = mu_o(rho) U' of the parallel-flow reduction
    (`symmetric.solve_parallel`), up to a constant.
    """
    grid = Grid2D(32, 32)
    _, x2 = grid.coords()
    bounds = DensityBounds(0.5, 1.5)
    law = make_law("affine:0.75,0.5", "prop:0.5", 0.5, 2.0, bounds)
    rho = 1.0 + 0.3 * np.cos(x2)
    zero = np.zeros_like(rho)
    # d2(mu_e(rho) U') with mu_e = 0.75 + 0.5 rho and rho' = -0.3 sin x2
    d2_flux = -(0.75 + 0.5 * rho) * np.sin(x2) - 0.15 * np.sin(x2) * np.cos(x2)
    force = VectorField(grid, -d2_flux / rho, zero)
    u0 = VectorField(grid, np.sin(x2), zero)
    data = InitialData(ScalarField(grid, rho), u0, lambda t: force)
    states, _ = run(EvolveConfig(grid, 1e-2, 0.2, law, bounds), data)
    final = states[-1]
    du = max(float(np.max(np.abs(final.u.comp1 - u0.comp1))),
             float(np.max(np.abs(final.u.comp2))))
    drho = float(np.max(np.abs(final.rho.values - rho)))
    dp = final.pressure.values - law.mu_o(rho) * np.cos(x2)
    return du, drho, float(np.max(np.abs(dp - np.mean(dp))))


def _check_steady_shear(seed):
    return max(_steady_shear_defects()), 1e-11


def _check_fielddump(seed):
    import tempfile
    grid = Grid2D(16, 12, 1.0, 0.75)
    rng = np.random.default_rng(seed)
    fld = VectorField(grid, rng.standard_normal((16, 12)),
                      rng.standard_normal((16, 12)))
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "x.odf")
        fio.write_field(path, fld, time=0.25)
        back, t = fio.read_field(path)
    exact = np.array_equal(back.data, fld.data) and t == 0.25
    return 0.0 if exact else 1.0, 0.5


def _check_kernel_parity(seed):
    # an unbuilt kernel raises ImportError naming oddflow._semilag_c: the check fails
    from . import _semilag_np
    from ._semilag_c import bicubic_periodic

    grid = Grid2D(32, 32, 6.4, 9.6)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((1, 32, 32))
    x1 = rng.uniform(-5.0, 15.0, 500)
    x2 = rng.uniform(-5.0, 15.0, 500)
    stack = rng.standard_normal((2, 32, 32))
    err = 0.0
    for planes, clamp in ((vals, True), (stack, False)):
        a, b = np.empty((2, len(planes), x1.size))
        bicubic_periodic(planes, x1, x2, grid.h1, grid.h2, clamp, a)
        _semilag_np.bicubic_periodic(planes, x1, x2, grid.h1, grid.h2, clamp, b)
        err = max(err, float(np.max(np.abs(a - b))))
    return err, 1e-13


_CHECKS = [
    ("pointwise-cancellation", _check_pointwise),
    ("weak-cancellation", _check_weak),
    ("ellipticity-bounds", _check_ellipticity),
    ("a-operator-constant-vanishing", _check_a_const),
    ("radial-constant-odd-invariance", _check_radial_invariance),
    ("concentric-odd-independence", _check_concentric_independence),
    ("parallel-strict-compatibility", _check_parallel_strict),
    ("parallel-steady-state", _check_steady_shear),
    ("fielddump-roundtrip", _check_fielddump),
    ("semilag-kernel-parity", _check_kernel_parity),
]


def _strain_odd_sign_flipped(u):
    o = strain_odd(u)
    return TensorField(u.grid, o.t11, -o.t12, -o.t21, o.t22)


# --inject-fault name -> (attribute of the viscosity module, replacement):
# verify runs its checks with the replacement installed, and a check the
# fault breaks must FAIL
_FAULTS = {"strain-odd-sign": ("strain_odd", _strain_odd_sign_flipped)}


def cmd_verify(args):
    selected = [
        (name, fn) for name, fn in _CHECKS
        if not args.filter or args.filter in name
    ]
    if not selected:
        print(f"verify: no checks match filter {args.filter!r}", file=sys.stderr)
        return 2
    failures = 0
    width = max(len(name) for name, _ in selected)
    fault = _FAULTS.get(args.inject_fault)
    if fault:
        original = getattr(viscosity, fault[0])
        setattr(viscosity, *fault)
    try:
        for name, fn in selected:
            try:
                value, tol = fn(args.seed)
            except ImportError as exc:
                # a check whose subject is not built fails; it never passes vacuously
                failures += 1
                print(f"{name:<{width}}  FAIL  ({exc})")
                continue
            ok = value <= tol
            failures += 0 if ok else 1
            print(f"{name:<{width}}  {value:.3e}  (tol {tol:.0e})  "
                  f"{'PASS' if ok else 'FAIL'}")
    finally:
        if fault:
            setattr(viscosity, fault[0], original)
    return 0 if failures == 0 else 1


# ------------------------------------------------------------------ main

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="oddflow",
        description="Simulation and verification suite for 2D incompressible "
                    "flow with density-dependent shear and odd viscosity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": dict(help="key = value config file"),
        "--out": dict(help="artifact output directory"),
        "--seed": dict(type=int, default=0),
        "--demo": dict(choices=["nonexistence"]),
        "--filter": dict(default="", help="run only checks whose name contains this"),
        "--inject-fault": dict(choices=sorted(_FAULTS), help="run with this fault installed"),
    }
    run_flags = ("--config", "--out", "--seed")
    for name, runner, names in (
        ("evolve", cmd_evolve, run_flags),
        ("stationary", cmd_stationary, run_flags),
        ("symmetric", cmd_symmetric, ("--config", "--out", "--demo")),
        ("sweep-odd-limit", cmd_sweep, run_flags),
        ("verify", cmd_verify, ("--seed", "--filter", "--inject-fault")),
    ):
        p = sub.add_parser(name)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(runner=runner)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.runner(args)
    except (ConfigError, fio.FieldDumpError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
