import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest

from oddflow import _semilag_np, semilag
from oddflow.fields import Grid2D, ScalarField, VectorField, perp_grad, random_scalar_field
from oddflow.semilag import (
    advect_scalar,
    departure_points,
    interp_bicubic,
)

REPO = Path(__file__).resolve().parents[1]
PACKAGE_SRC = REPO / "src" / "oddflow"
_CC = (sysconfig.get_config_var("CC") or "").split()[:1]
needs_cc = pytest.mark.skipif(not (_CC and shutil.which(_CC[0])),
                              reason="no C compiler (sysconfig CC) to build the kernel")


@pytest.fixture(scope="module")
def built_package(tmp_path_factory):
    """The package as the repo's setup.py builds it, outside the work tree.

    `build_ext` compiles the kernel into a temporary build-lib (unlike
    `setup.py build`, it writes no egg-info into src/), and the package's
    .py modules are copied next to it.  Returns the build-lib directory.
    """
    root = tmp_path_factory.mktemp("kernel_build")
    lib = root / "lib"
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(lib), "--build-temp", str(root / "temp")],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the kernel is hand-written C: a compiler warning is a defect in it
    warnings = [line for line in (proc.stdout + proc.stderr).splitlines()
                if "warning:" in line]
    assert not warnings, "\n".join(warnings)
    (lib / "oddflow").mkdir(parents=True, exist_ok=True)
    for module in PACKAGE_SRC.glob("*.py"):
        shutil.copy(module, lib / "oddflow")
    return lib


def _built_kernel(lib):
    """Load the built extension in this process, next to the source package.

    Creating the extension module enters it in sys.modules; the entry is put
    back as it was, so that a later `import oddflow._semilag_c` in this
    process still finds only what the source tree holds.
    """
    name = "oddflow._semilag_c"
    path = lib / "oddflow" / ("_semilag_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    spec = importlib.util.spec_from_file_location(name, path)
    before = sys.modules.get(name)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if before is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = before
    return module


@needs_cc
def test_compiled_kernel_is_used(built_package, tmp_path):
    # the build ships the compiled kernel; the numpy twin is a fallback
    env = dict(os.environ, PYTHONPATH=str(built_package))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import oddflow; print(oddflow.__file__); print(oddflow.USING_COMPILED)"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    where, using = proc.stdout.split()
    assert Path(where).parent == built_package / "oddflow"
    assert using == "True"


@needs_cc
def test_kernel_parity_compiled_vs_numpy(built_package):
    compiled = _built_kernel(built_package)
    g = Grid2D(32, 48, 5.0, 7.0)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((32, 48))
    x1 = rng.uniform(-12.0, 12.0, 2000)
    x2 = rng.uniform(-12.0, 12.0, 2000)
    stack = rng.standard_normal((2, 32, 48))
    for v in (vals[None], stack):
        for clamp in (True, False):
            a, b = np.empty((2, len(v), x1.size))
            compiled.bicubic_periodic(v, x1, x2, g.h1, g.h2, clamp, a)
            _semilag_np.bicubic_periodic(v, x1, x2, g.h1, g.h2, clamp, b)
            assert np.max(np.abs(a - b)) < 5e-14


@needs_cc
@pytest.mark.filterwarnings("error")  # neither kernel may warn on a non-finite point
def test_compiled_kernel_checks_its_arguments(built_package):
    compiled = _built_kernel(built_package)
    g = Grid2D(32, 48, 5.0, 7.0)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((2, 32, 48))
    x1 = rng.uniform(-12.0, 12.0, 100)
    x2 = rng.uniform(-12.0, 12.0, 100)
    out = np.empty((2, 100))
    frozen = np.empty((2, 100))
    frozen.flags.writeable = False
    malformed = [
        (vals[0], x1, x2, out),  # values: a plane, not a stack
        (vals.astype(np.float32), x1, x2, out),
        (np.asfortranarray(vals), x1, x2, out),
        (vals.tolist(), x1, x2, out),
        (vals, x1[:99], x2, out),  # x1 and x2 differ in length
        (vals, x1, x2.astype(np.int64), out),
        (vals, x1, x2, np.empty((2, 99))),  # out: wrong shape
        (vals, x1, x2, np.empty((1, 100))),
        (vals, x1, x2, np.empty(200)),
        (vals, x1, x2, frozen),
        (np.ascontiguousarray(vals[:, :3]), x1, x2, out),  # shorter than the stencil
        (np.ascontiguousarray(vals[:, :, :3]), x1, x2, out),
    ]
    for v, p1, p2, o in malformed:
        with pytest.raises((ValueError, TypeError)):
            compiled.bicubic_periodic(v, p1, p2, g.h1, g.h2, True, o)

    # a non-finite point gives NaN in both kernels, and is never an index
    p1 = np.array([np.nan, np.inf, -np.inf, 1.0, 1.0, 1.0, 1.0])
    p2 = np.array([2.0, 2.0, 2.0, np.nan, np.inf, -np.inf, 2.0])
    for clamp in (True, False):
        a, b = np.empty((2, 2, p1.size))
        compiled.bicubic_periodic(vals, p1, p2, g.h1, g.h2, clamp, a)
        _semilag_np.bicubic_periodic(vals, p1, p2, g.h1, g.h2, clamp, b)
        assert np.all(np.isnan(a[:, :6])) and np.all(np.isnan(b[:, :6]))
        assert np.array_equal(a[:, 6], b[:, 6])
    # a point too far out for an integer index still finds its node by period
    # (h2 = 1/8 makes the far point an exact whole number of periods)
    far, near = np.empty((2, 1)), np.empty((2, 1))
    for x, o in ((2.0**70 * 48 / 8, far), (0.0, near)):
        compiled.bicubic_periodic(vals, np.array([2.0]), np.array([x]), g.h1, 1 / 8, True, o)
    assert np.array_equal(far, near)



@needs_cc
def test_verify_kernel_parity_passes_with_built_kernel(built_package, tmp_path):
    # `verify` compares a plane and a (2, n1, n2) stack through both kernels
    env = dict(os.environ, PYTHONPATH=str(built_package))
    proc = subprocess.run(
        [sys.executable, "-m", "oddflow.cli", "verify", "--filter", "parity"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "semilag-kernel-parity" in proc.stdout and "PASS" in proc.stdout


def _loop_bicubic(values, x1, x2, h1, h2, clamp=True):
    """The per-node gather loop the numpy kernel replaced, kept as the oracle."""
    def weights(t):
        return (
            -t * (t - 1.0) * (t - 2.0) / 6.0,
            (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
            -(t + 1.0) * t * (t - 2.0) / 2.0,
            (t + 1.0) * t * (t - 1.0) / 6.0,
        )

    n1, n2 = values.shape
    s1 = x1 / h1
    s2 = x2 / h2
    i1 = np.floor(s1).astype(np.int64)
    i2 = np.floor(s2).astype(np.int64)
    w1 = weights(s1 - i1)
    w2 = weights(s2 - i2)
    acc = np.zeros_like(s1)
    lo = np.full_like(s1, np.inf)
    hi = np.full_like(s1, -np.inf)
    for a in range(4):
        ia = np.mod(i1 + a - 1, n1)
        row = np.zeros_like(s1)
        for b in range(4):
            ib = np.mod(i2 + b - 1, n2)
            v = values[ia, ib]
            row += w2[b] * v
            if 1 <= a <= 2 and 1 <= b <= 2:
                lo = np.minimum(lo, v)
                hi = np.maximum(hi, v)
        acc += w1[a] * row
    if clamp:
        acc = np.clip(acc, lo, hi)
    return acc


def _assert_kernel_equals_the_loop(kernel):
    g = Grid2D(32, 48, 5.0, 7.0)
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((2, 32, 48))
    # several periods out on both sides, more points than one block
    x1 = rng.uniform(-3.0 * g.len1, 3.0 * g.len1, 20000)
    x2 = rng.uniform(-3.0 * g.len2, 3.0 * g.len2, 20000)
    for clamp in (True, False):
        both = np.empty((2, 20000))
        kernel.bicubic_periodic(stack, x1, x2, g.h1, g.h2, clamp, both)
        for k in range(2):
            want = _loop_bicubic(stack[k], x1, x2, g.h1, g.h2, clamp)
            one = np.empty((1, 20000))
            kernel.bicubic_periodic(stack[k:k + 1], x1, x2, g.h1, g.h2, clamp, one)
            assert np.array_equal(one[0], want)
            assert np.array_equal(both[k], want)


def test_numpy_kernel_is_bit_identical_to_the_loop():
    _assert_kernel_equals_the_loop(_semilag_np)


@needs_cc
def test_compiled_kernel_is_bit_identical_to_the_loop(built_package):
    _assert_kernel_equals_the_loop(_built_kernel(built_package))


def test_numpy_kernel_far_and_non_finite_points():
    # like the compiled kernel: a point too far out for an integer index is
    # reduced by period (h2 = 1/8 makes it an exact whole number of periods),
    # and a non-finite point gives NaN without an invalid cast or subtraction
    vals = np.random.default_rng(13).standard_normal((2, 32, 48))
    p1 = np.array([2.0, 2.0, np.nan, np.inf, -np.inf, 1.0, 1.0, 1.0])
    p2 = np.array([2.0**70 * 48 / 8, 0.0, 2.0, 2.0, 2.0, np.nan, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for clamp in (True, False):
            out = np.empty((2, p1.size))
            _semilag_np.bicubic_periodic(vals, p1, p2, 0.25, 1 / 8, clamp, out)
            assert np.array_equal(out[:, 0], out[:, 1])
            assert np.all(np.isfinite(out[:, :2])) and np.all(np.isnan(out[:, 2:]))


def test_interp_stack_keeps_point_shape():
    g = Grid2D(16, 24, 3.0, 5.0)
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((2, 16, 24))
    x1, x2 = g.coords()
    x1, x2 = x1 + 0.3 * g.h1, x2 - 0.6 * g.h2
    both = interp_bicubic(g, stack, x1, x2, clamp=False)
    assert both.shape == (2, 16, 24)
    for k in range(2):
        assert np.array_equal(both[k], interp_bicubic(g, stack[k], x1, x2, clamp=False))


def test_departure_points_stacked_equal_two_plane_calls():
    g = Grid2D(32, 48, 5.0, 7.0)
    u = perp_grad(random_scalar_field(g, seed=13, cutoff=5))
    dt = 0.07
    x1, x2 = g.coords()
    xm1 = x1 - 0.5 * dt * u.comp1
    xm2 = x2 - 0.5 * dt * u.comp2
    um1 = interp_bicubic(g, u.comp1, xm1, xm2, clamp=False)
    um2 = interp_bicubic(g, u.comp2, xm1, xm2, clamp=False)
    d1, d2 = departure_points(g, u, dt)
    assert np.array_equal(d1, x1 - dt * um1)
    assert np.array_equal(d2, x2 - dt * um2)

def test_interpolation_exact_at_nodes():
    g = Grid2D(16, 16)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((16, 16))
    x1, x2 = g.coords()
    out = interp_bicubic(g, vals, x1, x2, clamp=False)
    assert np.max(np.abs(out - vals)) < 1e-13


def test_interpolation_fourth_order():
    # shifted evaluation of a smooth field: error should drop ~16x per
    # grid refinement for the cubic stencil
    errs = []
    for n in (32, 64):
        g = Grid2D(n, n)
        x1, x2 = g.coords()
        f = lambda a, b: np.sin(a) * np.cos(2 * b)
        shift1, shift2 = 0.37 * g.h1, 0.61 * g.h2
        out = interp_bicubic(g, f(x1, x2), x1 + shift1, x2 + shift2, clamp=False)
        errs.append(np.max(np.abs(out - f(x1 + shift1, x2 + shift2))))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.7


def test_clamping_preserves_local_bounds():
    g = Grid2D(16, 16)
    vals = np.zeros((16, 16))
    vals[8, 8] = 1.0  # spike: unclamped cubic overshoots near it
    rng = np.random.default_rng(2)
    x1 = rng.uniform(0, 2 * np.pi, 4000)
    x2 = rng.uniform(0, 2 * np.pi, 4000)
    raw = interp_bicubic(g, vals, x1, x2, clamp=False)
    clamped = interp_bicubic(g, vals, x1, x2, clamp=True)
    assert raw.min() < -1e-3  # the overshoot exists
    assert clamped.min() >= 0.0
    assert clamped.max() <= 1.0


def test_departure_points_zero_velocity():
    g = Grid2D(16, 16)
    z = np.zeros((16, 16))
    u = VectorField(g, z, z)
    d1, d2 = departure_points(g, u, 0.1)
    x1, x2 = g.coords()
    assert np.array_equal(d1, x1)
    assert np.array_equal(d2, x2)


def test_advection_bounds_and_mass():
    g = Grid2D(64, 64)
    psi = random_scalar_field(g, seed=3, cutoff=4)
    u = perp_grad(psi)
    rho = ScalarField(g, 1.0 + 0.4 * random_scalar_field(g, seed=4, cutoff=3).values)
    lo, hi = rho.values.min(), rho.values.max()
    mass0 = np.sum(rho.values)
    cur = rho
    for _ in range(20):
        cur = advect_scalar(cur, u, 0.01)
        assert cur.values.min() >= lo - 1e-14
        assert cur.values.max() <= hi + 1e-14
    assert abs(np.sum(cur.values) - mass0) <= 1e-9 * abs(mass0)


def test_constant_field_is_invariant(monkeypatch):
    # a constant is returned as it is, with no interpolation
    g = Grid2D(32, 32)
    psi = random_scalar_field(g, seed=5, cutoff=4)
    u = perp_grad(psi)
    c = ScalarField(g, np.full((32, 32), 0.8))
    calls = []
    inner = semilag.interp_bicubic

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(semilag, "interp_bicubic", counted)
    out = advect_scalar(c, u, 0.05)
    assert np.array_equal(out.values, c.values)
    assert calls == []


@pytest.mark.parametrize("n", [32, 48, 64, 256])
def test_transport_of_a_constant_is_exact(n):
    # the shortcut for a constant gives the general path's bits: a clamped
    # value lies between the min and max of its own 2x2 nodes, and the
    # mass fix then finds no defect
    g = Grid2D(n, n)
    u = perp_grad(random_scalar_field(g, seed=n, cutoff=4))
    u = VectorField(g, *(5.0 * u.data))
    d1, d2 = departure_points(g, u, 0.05)
    for value in (0.1 + 0.2, 0.8, 1.0, 1.3, 7.25e-3):
        c = np.full((n, n), value)
        vals = interp_bicubic(g, c, d1, d2, clamp=True)
        assert np.array_equal(semilag._restore_mass(vals, float(np.sum(c)), value, value), c)


def test_translation_oracle():
    # uniform velocity translates the field; compare against the exact
    # shifted band-limited profile
    g = Grid2D(64, 64)
    x1, x2 = g.coords()
    s = ScalarField(g, np.sin(x1) * np.cos(x2))
    u = VectorField(g, np.full_like(x1, 0.7), np.full_like(x1, -0.3))
    dt = 0.05
    out = advect_scalar(s, u, dt)
    exact = np.sin(x1 - 0.7 * dt) * np.cos(x2 + 0.3 * dt)
    assert np.max(np.abs(out.values - exact)) < 5e-6
