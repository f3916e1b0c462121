"""Tests of the benchmark itself: its output checks catch corrupted
outputs, and its tracer attributes time and transforms correctly.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, os.pardir, "src"), HERE]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oddflow import evolve, io  # noqa: E402
from oddflow.fields import Grid2D, ScalarField, VectorField  # noqa: E402
from oddflow.viscosity import DensityBounds, make_law  # noqa: E402


@pytest.fixture(scope="module")
def small_evolve(tmp_path_factory):
    """A short variable-density solve on 16x16 and its artifacts."""
    out = tmp_path_factory.mktemp("evolve")
    grid = Grid2D(16, 16)
    bounds = DensityBounds(0.5, 1.5)
    law = make_law("affine:0.75,0.5", "prop:0.5", 0.5, 2.0, bounds)
    config = evolve.EvolveConfig(grid, 1e-2, 0.05, law, bounds)
    from oddflow.fields import random_divfree_field, random_scalar_field

    rho0 = ScalarField(grid, 1.0 + 0.45 * random_scalar_field(grid, 1, 3).values)
    data = evolve.InitialData(rho0, random_divfree_field(grid, 0, 4))
    workloads.solve_evolve(config, data, str(out))
    return str(out), data, config.t_end


def _corrupt_field(out, fname, change):
    fld, t = io.read_field(os.path.join(out, fname))
    io.write_field(os.path.join(out, fname), change(fld), time=t)


def _copy(src, dst):
    for fname in os.listdir(src):
        with open(os.path.join(src, fname), "rb") as fh:
            payload = fh.read()
        with open(os.path.join(dst, fname), "wb") as fh:
            fh.write(payload)
    return str(dst)


def test_evolve_outputs_pass(small_evolve):
    assert oracle.check_evolve(*small_evolve) == []


def _density_above_bound(f):
    v = f.values.copy()
    v[0, 0] = v.max() + 1e-9
    return ScalarField(f.grid, v)


def _density_mass_loss(f):
    return ScalarField(f.grid, f.values * (1 - 1e-5))


def _velocity_divergent(f):
    x1, _ = f.grid.coords()
    return VectorField(f.grid, f.comp1 + 1e-6 * np.sin(x1), f.comp2)


@pytest.mark.parametrize("fname, change, message", [
    ("density.odf", _density_above_bound, "density leaves"),
    ("density.odf", _density_mass_loss, "mass drift"),
    ("velocity.odf", _velocity_divergent, "divergence"),
])
def test_evolve_corrupted_field_is_caught(small_evolve, tmp_path, fname, change, message):
    out, data, t_end = small_evolve
    out = _copy(out, tmp_path)
    _corrupt_field(out, fname, change)
    fails = oracle.check_evolve(out, data, t_end)
    assert any(message in f for f in fails), fails


def test_evolve_energy_rise_and_early_stop_are_caught(small_evolve, tmp_path):
    out, data, t_end = small_evolve
    out = _copy(out, tmp_path)
    header, rows = oracle._read_csv(os.path.join(out, "energy.csv"))
    rows[-1, 1] = rows[-2, 1] * (1 + 1e-3)
    io.write_csv(os.path.join(out, "energy.csv"), header, rows)
    fails = oracle.check_evolve(out, data, t_end)
    assert any("kinetic energy rises" in f for f in fails), fails
    fails = oracle.check_evolve(out, data, t_end + 0.01)
    assert any("not t_end" in f for f in fails), fails


def test_evolve_non_finite_output_is_caught(small_evolve, tmp_path):
    out, data, t_end = small_evolve
    out = _copy(out, tmp_path)
    path = os.path.join(out, "velocity.odf")
    with open(path, "r+b") as fh:
        fh.seek(-8, os.SEEK_END)
        fh.write(np.array([np.nan], dtype="<f8").tobytes())
    fails = oracle.check_evolve(out, data, t_end)
    assert fails and "non-finite" in fails[0], fails


def _stationary_outputs(out, phi, updates):
    n = phi.shape[0]
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    zeros = np.zeros(phi.size)
    io.write_csv(os.path.join(out, "iterations.csv"), ["k", "update_norm"],
                 [(k + 1, v) for k, v in enumerate(updates)])
    io.write_csv(os.path.join(out, "solution.csv"), ["i", "j", "phi", "u1", "u2"],
                 zip(i.ravel().tolist(), j.ravel().tolist(), phi.ravel(), zeros, zeros))


def test_stationary_checks(tmp_path):
    n, amp = 65, 100.0
    nodes = np.arange(n) / (n - 1)
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    exact = amp * (x * (1 - x) * y * (1 - y)) ** 2
    np.save(tmp_path / "phi_exact.npy", exact)
    # off by the discretization error of nx = 63, then by 6% more
    _stationary_outputs(tmp_path, exact + 6.2e-4, [1e-2, 1e-10])
    assert oracle.check_stationary(str(tmp_path), str(tmp_path), amp) == []

    _stationary_outputs(tmp_path, exact + 6.6e-4, [1e-2, 1e-10])
    fails = oracle.check_stationary(str(tmp_path), str(tmp_path), amp)
    assert any("L2 error" in f for f in fails), fails

    _stationary_outputs(tmp_path, exact, [1e-2, 1e-6])
    fails = oracle.check_stationary(str(tmp_path), str(tmp_path), amp)
    assert any("Picard stopped" in f for f in fails), fails


def test_self_times_and_fft_attribution(tmp_path):
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    root = tr.open(tracer.ROOT)                 # t = 0
    step = tr.open("evolve.step")               # t = 1
    cg = tr.open("evolve.solve_pressure")       # t = 2
    cg[tracer._FFTS] += 8
    tr.close(cg)                                # t = 3
    step[tracer._FFTS] += 2
    tr.close(step)                              # t = 4
    tr.close(root)                              # t = 5
    tr.dump(tmp_path / "spans.jsonl")
    agg = tracer.by_name(tracer.load_spans(tmp_path / "spans.jsonl"))
    assert agg["evolve.step"]["incl_s"] == 3.0
    assert agg["evolve.step"]["self_s"] == 2.0
    assert agg["evolve.step"]["ffts"] == 10
    assert agg[tracer.ROOT]["self_s"] == 2.0


def test_batched_transforms_count_per_plane():
    a = np.zeros((3, 8, 8))
    assert tracer._planes((a,), {}, True) == 3
    assert tracer._planes((a,), {"axes": (0, 1)}, True) == 8
    assert tracer._planes((a, None, (1, 2)), {}, False) == 3
    assert tracer._planes((a,), {"s": (8, 8)}, False) == 3
    assert tracer._planes((np.zeros((8, 8)),), {}, False) == 1


def test_traced_solve_accounts_for_wall(tmp_path):
    """Wrapping from outside sees the calls oddflow makes internally."""
    import worker

    grid = Grid2D(16, 16)
    bounds = DensityBounds(0.5, 1.5)
    law = make_law("const:1.0", "const:0.5", 0.5, 2.0, bounds)
    config = evolve.EvolveConfig(grid, 1e-2, 0.03, law, bounds)
    from oddflow.fields import random_divfree_field

    data = evolve.InitialData(ScalarField(grid, np.ones((16, 16))),
                              random_divfree_field(grid, 0, 4))
    tr = tracer.Tracer()
    try:
        tr.count_ffts()
        worker._install(tr)
        root = tr.open(tracer.ROOT)
        workloads.solve_evolve(config, data, str(tmp_path))
        tr.close(root)
    finally:
        tr.restore()
    tr.dump(tmp_path / "spans.jsonl")
    m = tracer.layer_metrics(tracer.load_spans(tmp_path / "spans.jsonl"))
    steps = m["evolve.steps"]
    assert steps >= 2
    # two projections per step, plus the pressure recovered at start and end
    assert m["evolve.pressure_calls"] == 2 * steps + 2
    assert m["evolve.pressure_ffts"] > 0
    # three interpolations of the whole grid per transport step
    assert m["semilag.interp_points"] == 3 * steps * 16 * 16
    assert m["io.write_s"] > 0
    assert m["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-2)


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_reference_scale():
    import reference

    assert reference.scale(1.0, reference.NOMINAL_S) == 1.0
    assert reference.scale(1.0, 2 * reference.NOMINAL_S) == 0.5


def test_worker_solves_and_times_the_reference(tmp_path, monkeypatch, capsys):
    """A worker given no time still solves once, between two kernel
    timings, and its artifacts pass the checks."""
    import worker

    monkeypatch.chdir(os.path.join(HERE, os.pardir))
    assert worker.main(["evolve-var-64", "1", str(tmp_path), str(tmp_path),
                        "solve", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(result["solves"]) == 1 and "error" not in result["solves"][0]
    assert len(result["ref_s"]) == 2 and min(result["ref_s"]) > 0
    config, data = workloads.build_evolve("evolve-var-64", 1)
    assert oracle.check_evolve(str(tmp_path / "rep0"), data, config.t_end) == []
