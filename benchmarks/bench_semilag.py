"""Benchmark the bicubic interpolation kernels: compiled vs numpy.

Run as: PYTHONPATH=src python3 benchmarks/bench_semilag.py [grid_size ...]
after `python setup.py build_ext --inplace`; unbuilt, only the numpy twin runs.

Two point sets on an n x n grid: `uniform`, n^2 points drawn uniformly
from [-10, 10]^2 (scattered gathers), and `departure`, the grid nodes
each shifted by less than one cell (what transport asks for).  Two calls:
`plane`, one clamped scalar plane, and `pair`, a (2, n, n) velocity stack
sampled unclamped at the same points; both kernels take the stack in one
call and find each point's stencil once for its two planes.  Each kernel
module is called directly, into an output array allocated once.  Times are
the best of 5 in ns per point; a pair call counts each point once, for its
two values.
"""

import sys
import time

import numpy as np

from oddflow import _semilag_np
from oddflow.fields import Grid2D

try:
    from oddflow import _semilag_c
except ImportError:
    _semilag_c = None


def point_sets(grid, rng):
    n = grid.n1 * grid.n2
    x1, x2 = grid.coords()
    return {
        "uniform": (rng.uniform(-10.0, 10.0, n), rng.uniform(-10.0, 10.0, n)),
        "departure": (x1 + rng.uniform(-1.0, 1.0, x1.shape) * grid.h1,
                      x2 + rng.uniform(-1.0, 1.0, x2.shape) * grid.h2),
    }


def best_time(fn, repeats=5):
    fn()  # warm up
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(n):
    """{(call, point set): {kernel: ns per point or None}} on an n x n grid."""
    grid = Grid2D(n, n)
    rng = np.random.default_rng(7)
    calls = {
        "plane": (rng.standard_normal((1, n, n)), True),
        "pair": (rng.standard_normal((2, n, n)), False),
    }
    results = {}
    for set_name, (x1, x2) in point_sets(grid, rng).items():
        x1, x2 = np.ravel(x1), np.ravel(x2)
        for call, (vals, clamp) in calls.items():
            row = results[(call, set_name)] = {}
            out = np.empty((len(vals), x1.size))
            for label, kern in (("compiled", _semilag_c), ("numpy", _semilag_np)):
                if kern is None:
                    row[label] = None
                    continue
                t = best_time(lambda: kern.bicubic_periodic(vals, x1, x2, grid.h1, grid.h2,
                                                            clamp, out))
                row[label] = 1e9 * t / x1.size
    return results


def main():
    sizes = [int(a) for a in sys.argv[1:]] or [64, 128, 256, 512]
    print(f"compiled kernel available: {_semilag_c is not None}")
    print(f"{'n':>5} {'points':>8} {'call':>6} {'set':>10} "
          f"{'compiled':>11} {'numpy':>11} {'speedup':>8}")
    for n in sizes:
        for (call, set_name), r in bench(n).items():
            c, p = r["compiled"], r["numpy"]
            cs = f"{c:8.1f} ns" if c is not None else "        n/a"
            ratio = f"{p / c:7.2f}x" if c else "     n/a"
            print(f"{n:>5} {n * n:>8} {call:>6} {set_name:>10} "
                  f"{cs:>11} {p:8.1f} ns {ratio:>8}")


if __name__ == "__main__":
    main()
