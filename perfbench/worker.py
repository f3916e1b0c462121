"""One process of a run: set up as a user of oddflow would, then solve
back to back.

    python3 perfbench/worker.py WORKLOAD SEED WORK_DIR INPUTS_DIR MODE SECONDS

MODE is `setup` (import and build the inputs, then stop), `solve` or
`traced` (solve with the tracer installed).  Solves repeat until SECONDS
have passed, at least once; solve k writes its artifacts to
WORK_DIR/rep<k> and, when traced, its spans to WORK_DIR/spans<k>.jsonl.
The reference kernel is timed after set-up and after each solve.
Prints one JSON line: setup_s, the kernel in use, peak_rss_mb, the
reference kernel times ref_s and, per solve, wall_s and `error` when
the solve raised.
Run from the checkout root, whose src/ holds oddflow.  Exit code 2
means oddflow could not be imported from there.
"""

import json
import os
import sys
import time

SRC = os.path.abspath("src")


def main(argv):
    name, seed, work, inputs_dir, mode, seconds = argv
    sys.path.insert(0, SRC)
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.count_ffts()

    t0 = time.perf_counter()
    try:
        import oddflow
    except ImportError as e:
        print(f"worker: cannot import oddflow from {SRC}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(oddflow.__file__).startswith(SRC + os.sep):
        print(f"worker: oddflow comes from {oddflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.build(name, int(seed), inputs_dir)
    result = {"setup_s": time.perf_counter() - t0,
              "kernel": "compiled" if oddflow.USING_COMPILED else "numpy"}
    import reference

    ref_data = reference.inputs()
    ref_s = [reference.timed(ref_data)]
    if mode != "setup":
        if tracer is not None:
            _install(tracer)
        solves = []
        start = time.perf_counter()
        while not solves or time.perf_counter() - start < float(seconds):
            out = os.path.join(work, f"rep{len(solves)}")
            os.makedirs(out)
            solves.append(_solve(name, inputs, out, tracer))
            if tracer is not None:
                tracer.dump(os.path.join(work, f"spans{len(solves) - 1}.jsonl"))
                tracer.spans.clear()
            ref_s.append(reference.timed(ref_data))
        result["solves"] = solves
    result["ref_s"] = ref_s
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


def _solve(name, inputs, out, tracer):
    import workloads

    if tracer is not None:
        from tracer import ROOT

        root = tracer.open(ROOT)
    solve = {}
    t1 = time.perf_counter()
    try:
        workloads.solve(name, inputs, out)
    except Exception as e:  # a failed solve is a measured outcome
        solve["error"] = f"{type(e).__name__}: {e}"
    solve["wall_s"] = time.perf_counter() - t1
    if tracer is not None:
        tracer.close(root)
    return solve


def _peak_rss_mb():
    """Peak resident memory of this process image (Linux).

    Not ru_maxrss: Linux carries its high-water mark across fork and
    exec, so it would also count the parent's memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _install(tracer):
    """Wrap the public names whose calls make up a solve."""
    from oddflow import evolve, io, semilag, stationary

    for attr in ("run", "step", "solve_pressure", "recover_pressure", "advect_scalar"):
        tracer.wrap(evolve, attr)
    tracer.wrap(semilag, "interp_bicubic",
                attrs=lambda a, kw: {"points": int(_arg(a, kw, 2, "x1").size)})
    for attr in ("picard_solve", "assemble_L", "assemble_A", "nonlinear_rhs",
                 "clamped_embedding"):
        tracer.wrap(stationary, attr)
    tracer.wrap(stationary, "spsolve",
                attrs=lambda a, kw: {"nnz": int(_arg(a, kw, 0, "A").nnz)})
    for attr in ("write_field", "write_csv"):
        tracer.wrap(io, attr)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
