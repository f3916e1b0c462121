import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code):
    """Words printed by `code` in a fresh interpreter that imports from src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _loaded_after(module, names):
    return _run(f"import sys, {module}\n"
                f"print(*[n for n in {names!r} if n in sys.modules])")


def test_each_regime_imports_only_its_own_modules():
    others = ["oddflow.stationary", "oddflow.symmetric", "scipy.sparse", "scipy.integrate"]
    assert _loaded_after("oddflow.evolve", others) == []
    # each subcommand imports its regime when it runs
    assert _loaded_after("oddflow.cli", others) == []
    assert _loaded_after("oddflow.stationary", ["oddflow.symmetric", "scipy.integrate"]) == []
    # only the symmetric solver and the stationary sparse path need scipy
    for module in ("oddflow.evolve", "oddflow.cli", "oddflow.stationary"):
        assert _run(f"import sys, {module}\n"
                    "print(*[n for n in sys.modules if n.startswith('scipy')])") == []


# a 16^2 problem with no force and wall data g, solved in a fresh
# interpreter that then prints the scipy modules it has loaded
_SOLVE = """
import sys
import numpy as np
from oddflow.stationary import (RectDomain, StationaryProblem, boundary_data_from_g,
                                eta_affine, picard_solve)
from oddflow.viscosity import DensityBounds, make_law

def g(x, y):
    {g}

dom = RectDomain(16, 16)
z = np.zeros((18, 18))
law = make_law("affine:0.75,0.5", "prop:0.5", 0.5, 2.0, DensityBounds(0.5, 1.5))
picard_solve(StationaryProblem(dom, law, eta_affine(1.0, 0.05, 2.0), z, z,
                               boundary_data_from_g(dom, g)))
print(*[n for n in sys.modules if n.startswith("scipy")])
"""


def test_stationary_loads_scipy_only_for_a_variable_first_map():
    # tangential wall data give phi0 = 0, one density and a constant first
    # map, which the DST-I solver inverts on numpy alone
    wall = ("return ((5.0, 0.0) if y == 0.0 else (0.0, 5.0) if x == 1.0\n"
            "            else (-5.0, 0.0) if y == 1.0 else (0.0, -5.0))")
    assert _run(_SOLVE.format(g=wall)) == []
    # positive control: a channel inflow varies phi0 and the density, and
    # that first map is factorized by SuperLU
    assert "scipy.sparse.linalg" in _run(_SOLVE.format(g="return (4.0 * y * (1.0 - y), 0.0)"))


def test_package_root_exports_the_kernel_flag():
    assert _run("import oddflow; print(oddflow.USING_COMPILED)") in (["True"], ["False"])
