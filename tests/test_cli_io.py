import filecmp
import os
import re
import struct

import numpy as np
import pytest

from oddflow import cli
from oddflow.cli import ConfigError, apply_schema, load_config, main
from oddflow.evolve import InitialData
from oddflow.fields import Grid2D, ScalarField, TensorField, VectorField
from oddflow.io import (
    FieldDumpError,
    KIND_SCALAR,
    KIND_TENSOR,
    KIND_VECTOR,
    MAGIC,
    read_field,
    write_field,
    write_csv,
)


# ----------------------------------------------------------------- dumps

def _sample_fields():
    g = Grid2D(12, 10, 3.0, 2.5)
    rng = np.random.default_rng(0)
    r = lambda: rng.standard_normal((12, 10))
    return [
        ScalarField(g, r()),
        VectorField(g, r(), r()),
        TensorField(g, r(), r(), r(), r()),
    ]


def test_field_dump_roundtrip_bitwise(tmp_path):
    for k, fld in enumerate(_sample_fields()):
        path = tmp_path / f"f{k}.odf"
        write_field(path, fld, time=0.125 * k)
        back, t = read_field(path)
        assert t == 0.125 * k
        assert back.grid == fld.grid
        for a, b in zip(back.__dict__.values(), fld.__dict__.values()):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)


def test_field_dump_bytes_are_the_header_then_each_component(tmp_path):
    # pinned apart from the reader, which a roundtrip checks only against
    # the writer
    names = (("values",), ("comp1", "comp2"), ("t11", "t12", "t21", "t22"))
    kinds = (KIND_SCALAR, KIND_VECTOR, KIND_TENSOR)
    for kind, comps, fld in zip(kinds, names, _sample_fields()):
        path = tmp_path / f"f{kind}.odf"
        write_field(path, fld, time=0.375)
        g = fld.grid
        expected = struct.pack("<4sBIIddd", b"ODF1", kind, g.n1, g.n2, g.len1, g.len2, 0.375)
        expected += b"".join(getattr(fld, c).astype("<f8").tobytes() for c in comps)
        assert path.read_bytes() == expected


def test_field_dump_structured_errors(tmp_path):
    fld = _sample_fields()[0]
    path = tmp_path / "f.odf"
    write_field(path, fld)
    raw = path.read_bytes()

    (tmp_path / "short.odf").write_bytes(raw[:10])
    with pytest.raises(FieldDumpError, match="truncated header"):
        read_field(tmp_path / "short.odf")

    (tmp_path / "magic.odf").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FieldDumpError, match="bad magic"):
        read_field(tmp_path / "magic.odf")

    (tmp_path / "kind.odf").write_bytes(MAGIC + bytes([9]) + raw[5:])
    with pytest.raises(FieldDumpError, match="unknown field kind"):
        read_field(tmp_path / "kind.odf")

    with pytest.raises(FieldDumpError, match="kind mismatch"):
        read_field(path, expect_kind=KIND_VECTOR)
    read_field(path, expect_kind=KIND_SCALAR)  # matching kind passes

    (tmp_path / "payload.odf").write_bytes(raw[:-8])
    with pytest.raises(FieldDumpError, match="truncated payload"):
        read_field(tmp_path / "payload.odf")


def test_csv_number_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "v"], [(1, 0.1), (2, float(np.pi))])
    lines = path.read_text().splitlines()
    assert lines[0] == "k,v"
    assert lines[1] == "1,1.0000000000000001e-01"
    # 17 significant digits round-trip float64 exactly
    assert float(lines[2].split(",")[1]) == float(np.pi)


def test_csv_rows_of_mixed_cell_types(tmp_path):
    # integers of either kind and bools are written as integers, every
    # other number in 17-digit scientific notation, rows of differing
    # cell types each in their own format
    path = tmp_path / "m.csv"
    write_csv(path, ["a", "b", "c", "d"], [
        (1, np.int64(-7), True, 0.1),
        (np.float32(0.1), np.float64(np.pi), float("nan"), float("inf")),
        (-0.0, -float("inf"), np.int64(2**40), False),
        (3, np.int64(4), False, 2.5),
    ])
    assert path.read_text() == (
        "a,b,c,d\n"
        "1,-7,1,1.0000000000000001e-01\n"
        "1.0000000149011612e-01,3.1415926535897931e+00,nan,inf\n"
        "-0.0000000000000000e+00,-inf,1099511627776,0\n"
        "3,4,0,2.5000000000000000e+00\n"
    )


# ------------------------------------------------------------ config files

def test_config_parsing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nn = 16  # trailing\ndt = 1e-3\n")
    raw = load_config(p)
    assert raw == {"n": "16", "dt": "1e-3"}
    p.write_text("n = 1\nn = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(p)
    p.write_text("just words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(p)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_schema_application():
    schema = {"n": (int, 8), "dt": (float, None)}
    assert apply_schema({"n": "4"}, schema) == {"n": 4, "dt": None}
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_schema({"m": "1"}, schema)
    with pytest.raises(ConfigError, match="key 'n'"):
        apply_schema({"n": "four"}, schema)


# ------------------------------------------------------------ subcommands

def _write(path, text):
    path.write_text(text)
    return str(path)


def test_evolve_command_and_determinism(tmp_path):
    cfg = _write(tmp_path / "e.cfg", (
        "n = 16\ndt = 5e-3\nt_end = 0.05\n"
        "nu_e = affine:0.75,0.5\nnu_o = prop:0.5\n"
        "init_velocity = random\ninit_density = perturbed\n"
    ))
    outs = [str(tmp_path / d) for d in ("a", "b")]
    for out in outs:
        assert main(["evolve", "--config", cfg, "--out", out, "--seed", "3"]) == 0
    names = ["density.odf", "velocity.odf", "pressure.odf", "energy.csv"]
    for name in names:
        assert filecmp.cmp(os.path.join(outs[0], name),
                           os.path.join(outs[1], name), shallow=False)
    u, t = read_field(os.path.join(outs[0], "velocity.odf"),
                      expect_kind=KIND_VECTOR)
    assert t == pytest.approx(0.05)
    header = open(os.path.join(outs[0], "energy.csv")).readline().strip()
    assert header == "t,kinetic,dissipation,work,balance_defect"


def test_evolve_rejects_bad_config(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.cfg", "n = 16\ndt = 5e-3\nt_end = 0.05\nwhat = 1\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = _write(tmp_path / "neg.cfg", "n = 16\ndt = -1e-3\nt_end = 0.05\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
    # a nan step is an input error, not a state turned non-finite
    cfg = _write(tmp_path / "nan.cfg", "n = 16\ndt = nan\nt_end = 0.01\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "finite and positive" in capsys.readouterr().err
    # the command writes the final state alone, so it keeps no others
    cfg = _write(tmp_path / "store.cfg", "n = 16\ndt = 5e-3\nt_end = 0.05\nstore_every = 1\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown config key(s): store_every" in capsys.readouterr().err
    # an infinite mu_upper bounds no viscosity: it ran and exited 0
    cfg = _write(tmp_path / "inf.cfg", "n = 16\ndt = 1e-2\nt_end = 0.02\nmu_upper = inf\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "invalid input" in capsys.readouterr().err



def test_non_finite_length_is_an_input_error(tmp_path, capsys):
    # not a solver failure: a nan cell width made the stationary factor
    # singular, and a zero evolve state's energy non-finite
    for bad in ("nan", "inf"):
        cfg = _write(tmp_path / "e.cfg", (
            f"n = 16\ndt = 1e-2\nt_end = 0.05\nlength = {bad}\ninit_velocity = zero\n"))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "finite and positive" in capsys.readouterr().err
        cfg = _write(tmp_path / "s.cfg", f"n = 16\nlength = {bad}\n")
        assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "finite and positive" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_evolve_overflow_is_a_solver_failure(tmp_path, capsys):
    # the velocity is finite, but its transforms overflow: exit 3, not 2
    cfg = _write(tmp_path / "o.cfg", "n = 16\ndt = 1e-2\nt_end = 0.05\namplitude = 1e306\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and "step 0 (t = 0)" in err


def test_evolve_collapsing_step_is_a_solver_failure(tmp_path, capsys):
    # Taylor-Green at amplitude 1e8 on 16^2 needs a CFL step of 2e-7 of
    # the configured one: exit 3 at once instead of 2.5e7 steps
    cfg = _write(tmp_path / "c.cfg", "n = 16\ndt = 1e-2\nt_end = 0.05\namplitude = 1e8\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and "fell below" in err and "step 1 (t = 0)" in err


def test_evolve_divergence_check_scales_with_amplitude(tmp_path, monkeypatch, capsys):
    # Taylor-Green at amplitude 1e5: its spectral divergence rounds to 3e-10
    cfg = _write(tmp_path / "a.cfg", "n = 16\ndt = 1e-2\nt_end = 1e-5\namplitude = 1e5\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "tg")]) == 0
    # a divergent part of 1e-6 of that amplitude is still rejected
    make = cli._initial_data

    def divergent(cfg, grid, bounds, seed):
        data = make(cfg, grid, bounds, seed)
        x1, _ = grid.coords()
        u1 = data.u0.comp1 + 1e-6 * cfg["amplitude"] * np.sin(x1)
        return InitialData(data.rho0, VectorField(grid, u1, data.u0.comp2))

    monkeypatch.setattr(cli, "_initial_data", divergent)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "div")]) == 2
    assert "not divergence-free" in capsys.readouterr().err


def test_stationary_command_with_boundary_file(tmp_path):
    bdry = _write(tmp_path / "b.cfg",
                  "bottom_t = 1.0\nright_t = 1.0\ntop_t = 1.0\nleft_t = 1.0\n")
    cfg = _write(tmp_path / "s.cfg", (
        "n = 16\nnu_e = affine:0.75,0.5\nnu_o = prop:0.5\n"
        f"eta = affine:1.0,0.2\nboundary_file = {bdry}\n"
    ))
    out = str(tmp_path / "out")
    assert main(["stationary", "--config", cfg, "--out", out]) == 0
    phi, _ = read_field(os.path.join(out, "phi.odf"), expect_kind=KIND_SCALAR)
    assert phi.values.shape == (18, 18)
    rows = open(os.path.join(out, "ellipticity.csv")).readlines()
    vals = dict(zip(rows[0].strip().split(","),
                    map(float, rows[1].strip().split(","))))
    assert vals["rayleigh_min"] >= vals["lower_bound"] - 1e-12
    assert vals["odd_form_max"] <= 1e-12


def test_stationary_dumps_read_back_on_the_domain_nodes(tmp_path):
    from oddflow.stationary import RectDomain

    cfg = _write(tmp_path / "s.cfg", "n = 16\nlength = 2.0\n")
    out = str(tmp_path / "out")
    assert main(["stationary", "--config", cfg, "--out", out]) == 0
    xm, ym = RectDomain(16, 16, 2.0, 2.0).mid_coords()
    for name, kind in (("phi.odf", KIND_SCALAR), ("velocity.odf", KIND_VECTOR)):
        fld, _ = read_field(os.path.join(out, name), expect_kind=kind)
        x, y = fld.grid.coords()
        assert np.max(np.abs(x - xm)) <= 1e-14 and np.max(np.abs(y - ym)) <= 1e-14


def test_stationary_rejects_net_flux_boundary(tmp_path):
    bdry = _write(tmp_path / "b.cfg", "bottom_n = 1.0\n")
    cfg = _write(tmp_path / "s.cfg", f"n = 16\nboundary_file = {bdry}\n")
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("key", ["bottom_t", "bottom_n"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_stationary_rejects_a_non_finite_boundary_value(tmp_path, capsys, key, value):
    # the flux and closure tests are False for nan, so such a side value
    # reached the solver and exited 3 ("Picard map turned non-finite")
    bdry = _write(tmp_path / "b.cfg", f"{key} = {value}\n")
    cfg = _write(tmp_path / "s.cfg", f"n = 16\nboundary_file = {bdry}\n")
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "boundary velocity is not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_stationary_huge_finite_boundary_value_is_a_solver_failure(tmp_path):
    # a finite side value is valid input, however large: its overflow is
    # the solver's
    bdry = _write(tmp_path / "b.cfg", "bottom_t = 1e300\n")
    cfg = _write(tmp_path / "s.cfg", f"n = 16\nboundary_file = {bdry}\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_stationary_rejects_bad_tol_and_max_iter(tmp_path, capsys):
    for key, value in (("max_iter", "0"), ("tol", "nan"), ("tol", "inf")):
        cfg = _write(tmp_path / "s.cfg", f"n = 16\n{key} = {value}\n")
        assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("line", ["eta_max = nan", "eta_max = inf", "rho_max = inf",
                                  "nu_e = const:nan", "eta = affine:1,nan",
                                  "mu_upper = inf"])
def test_stationary_rejects_non_finite_inputs(tmp_path, capsys, line):
    # a nan or infinite eta_max passed eta's range check and exited 0, an
    # infinite rho_max overflowed the ellipticity sampling (exit 1), nan
    # law constants reached the solver (exit 3), and an infinite mu_upper
    # was written as the ellipticity's upper bound (exit 0)
    cfg = _write(tmp_path / "s.cfg", f"n = 16\n{line}\n")
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_legitimate_edge_values_are_accepted(tmp_path):
    # the odd term does no work, so a negative odd viscosity is allowed,
    # and a zero-amplitude evolve start is a valid (resting) state
    cfg = _write(tmp_path / "s.cfg", "n = 16\nnu_o = const:-0.5\n")
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    cfg = _write(tmp_path / "e.cfg", "n = 16\ndt = 1e-2\nt_end = 0.02\namplitude = 0\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e")]) == 0


def test_stationary_reports_nonconvergence(tmp_path):
    bdry = _write(tmp_path / "b.cfg", "bottom_t = 1.0\ntop_t = 1.0\n")
    cfg = _write(tmp_path / "s.cfg", (
        f"n = 16\nboundary_file = {bdry}\nmax_iter = 1\ntol = 1e-14\n"
    ))
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_stationary_overflowing_map_is_a_solver_failure(tmp_path, capsys):
    # a tangential wall speed of 1000 drives the iteration to overflow in
    # nonlinear_rhs; the non-finite map must stop it before the Anderson
    # least-squares step (which would raise LinAlgError), with exit 3
    bdry = _write(tmp_path / "b.cfg", "".join(
        f"{side}_t = 1000.0\n" for side in ("bottom", "right", "top", "left")))
    cfg = _write(tmp_path / "s.cfg", f"n = 16\nboundary_file = {bdry}\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "last update inf" in capsys.readouterr().err


def test_stationary_failure_names_the_iteration(tmp_path, capsys):
    # the exit-3 report carries the PicardError message, which says where
    # the iteration failed
    bdry = _write(tmp_path / "b.cfg", "".join(
        f"{side}_t = 1000.0\n" for side in ("bottom", "right", "top", "left")))
    cfg = _write(tmp_path / "s.cfg", f"n = 16\nboundary_file = {bdry}\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    # which iteration overflows is rounding noise (24, 25 or 26 under
    # 1e-15 perturbations of the preconditioner solves), so only that
    # the message names one within the run is pinned
    found = re.search(r"stationary: Picard map turned non-finite in iteration (\d+)", err)
    max_iter = cli._STATIONARY_SCHEMA["max_iter"][1]
    assert found and 1 <= int(found.group(1)) <= max_iter


def test_stationary_singular_factorization_names_the_factorization(tmp_path, capsys):
    # density 0 with nu_e(r) = r makes the operator singular; the exit-3
    # report says that the factorization failed, and in which iteration
    cfg = _write(tmp_path / "s.cfg",
                 "n = 12\nnu_e = affine:0,1\nnu_o = const:0.0\neta = const:0.0\n")
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "stationary: factorization failed in iteration 1" in err


def test_symmetric_command_profiles(tmp_path):
    cfg = _write(tmp_path / "p.cfg",
                 "symmetry = parallel\nC = -2.0\nu_a = 0.0\nu_b = 0.0\n")
    out = str(tmp_path / "par")
    assert main(["symmetric", "--config", cfg, "--out", out]) == 0
    rows = np.loadtxt(os.path.join(out, "profile.csv"), delimiter=",", skiprows=1)
    x, u1 = rows[:, 0], rows[:, 1]
    assert np.max(np.abs(u1 - x * (1 - x))) < 1e-8
    res = float(open(os.path.join(out, "residual.csv")).readlines()[1])
    assert res < 1e-8

    cfg = _write(tmp_path / "r.cfg", "symmetry = radial\nC = 5.0\n")
    out = str(tmp_path / "rad")
    assert main(["symmetric", "--config", cfg, "--out", out]) == 0
    rows = np.loadtxt(os.path.join(out, "profile.csv"), delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-10

    cfg = _write(tmp_path / "u.cfg", "symmetry = helical\n")
    assert main(["symmetric", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("symmetry, key, value", [
    ("parallel", "n", "0"), ("parallel", "n", "1"), ("parallel", "n", "4"),
    ("parallel", "b", "nan"), ("parallel", "C", "nan"), ("parallel", "u_a", "inf"),
    ("concentric", "r_in", "nan"), ("concentric", "C1", "inf"), ("radial", "C", "nan"),
])
def test_symmetric_rejects_bad_inputs(tmp_path, capsys, symmetry, key, value):
    # n < 2 raised IndexError and n = 4 left the residual check no node
    # (exit 1, or 2 naming no key), a nan b divided by zero, other
    # non-finite values printed "residual nan" with exit 0, and a nan
    # radial C failed Newton with exit 3
    cfg = _write(tmp_path / "y.cfg", f"symmetry = {symmetry}\n{key} = {value}\n")
    assert main(["symmetric", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"invalid input: {key} must" in capsys.readouterr().err


def test_symmetric_nonexistence_demo(tmp_path):
    out = str(tmp_path / "demo")
    assert main(["symmetric", "--demo", "nonexistence", "--out", out]) == 0
    table = np.loadtxt(os.path.join(out, "nonexistence.csv"),
                       delimiter=",", skiprows=1)
    assert list(table[:, 0]) == [64.0, 128.0, 256.0, 512.0]
    res = table[:, 1]
    assert np.all(res >= 0.5 * res[0])  # no convergence under refinement
    rescue = np.loadtxt(os.path.join(out, "nonexistence_rescue.csv"),
                        delimiter=",", skiprows=1)
    assert rescue[1] <= 1e-10


def test_sweep_command_monotone(tmp_path):
    cfg = _write(tmp_path / "w.cfg",
                 "n = 16\ndt = 1e-2\nt_end = 0.2\neps = 0.4,0.1\n")
    out = str(tmp_path / "sweep")
    assert main(["sweep-odd-limit", "--config", cfg, "--out", out,
                 "--seed", "5"]) == 0
    rows = np.loadtxt(os.path.join(out, "sweep.csv"), delimiter=",", skiprows=1)
    assert rows[0, 1] > rows[1, 1] > 0.0


def test_sweep_rejects_non_finite_eps(tmp_path, capsys):
    # a nan eps reached the runs and exited 3 as a state turned non-finite
    for eps in ("nan", "0.1,inf"):
        cfg = _write(tmp_path / "w.cfg", f"n = 16\ndt = 1e-2\nt_end = 0.02\neps = {eps}\n")
        assert main(["sweep-odd-limit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "invalid input: every eps must be finite" in capsys.readouterr().err


def test_verify_filter_and_fault_injection(capsys):
    assert main(["verify", "--filter", "fielddump"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--filter", "no-such-check"]) == 2
    assert main(["verify", "--filter", "pointwise",
                 "--inject-fault", "strain-odd-sign"]) == 1
    out = capsys.readouterr().out
    assert "pointwise-cancellation" in out and "FAIL" in out
    # the fault must not leak into later runs
    assert main(["verify", "--filter", "pointwise"]) == 0


def test_unknown_fault_and_foreign_flags_exit_2():
    # each subcommand takes only the flags it reads
    for argv in (["verify", "--inject-fault", "bogus", "--filter", "pointwise"],
                 ["evolve", "--demo", "nonexistence"],
                 ["symmetric", "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_verify_kernel_parity_needs_compiled_kernel(capsys):
    from oddflow.semilag import USING_COMPILED

    assert main(["verify", "--filter", "parity"]) == (0 if USING_COMPILED else 1)
    out = capsys.readouterr().out
    assert "semilag-kernel-parity" in out
    if not USING_COMPILED:
        assert "FAIL" in out and "oddflow._semilag_c" in out
