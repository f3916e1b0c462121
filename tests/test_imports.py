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
    # only the stationary and symmetric solvers need scipy
    for module in ("oddflow.evolve", "oddflow.cli"):
        assert _run(f"import sys, {module}\n"
                    "print(*[n for n in sys.modules if n.startswith('scipy')])") == []
    assert _loaded_after("oddflow.stationary", ["scipy.fft"]) == []


def test_package_root_exports_the_kernel_flag():
    assert _run("import oddflow; print(oddflow.USING_COMPILED)") in (["True"], ["False"])
