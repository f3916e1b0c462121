"""End-to-end benchmark of oddflow, with a traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of an oddflow checkout; oddflow is imported from its
src/.  For --seconds, the benchmark starts five processes one after
another (perfbench/worker.py); each sets up as a user would and then
solves back to back for its share of the time.  With --trace 1, every
second process is traced, and its solves give the per-layer metrics.
Every solve's outputs are checked (perfbench/oracle.py); the oracle's
own work is never timed.

The host is shared and its speed drifts, so each set-up and each solve
is scaled by a reference kernel timed right after it
(perfbench/reference.py): wall_s and setup_s are medians in seconds on
a nominal host.  The times as measured are printed and recorded too.

The last line of output is one JSON object: correct, attempted, failed
and metrics.  The lines before it give the provenance and the metrics by
name and unit; the full record, with every solve, goes to
.perfbench_out/.  Exit code 2: no oddflow checkout here, or a solve
process could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = ".perfbench_out"

# One BLAS/OpenMP thread: no layer of oddflow is multithreaded at this
# point, and one thread keeps the figures from depending on what else the
# machine runs.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

PROCESSES = 5           # solve processes per run, one after another
SETUP_SAMPLES = 5       # set-up is measured at least this often per run
WORKER_TIMEOUT = 150    # seconds for one worker process

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "semilag.advect_s": "s", "semilag.interp_points": "count",
    "semilag.ns_per_point": "ns",
    "evolve.pressure_s": "s", "evolve.pressure_calls": "count",
    "evolve.pressure_ffts": "count", "evolve.step_self_s": "s",
    "evolve.recover_self_s": "s", "evolve.run_self_s": "s",
    "evolve.steps": "count", "evolve.ms_per_step": "ms",
    "fields.ffts_per_step": "count",
    "stationary.picard_iterations": "count", "stationary.solve_s": "s",
    "stationary.assemble_s": "s", "stationary.rhs_s": "s",
    "stationary.embed_s": "s", "stationary.self_s": "s",
    "stationary.matrix_nnz": "count",
    "io.write_s": "s",
    "trace.wall_s": "s", "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class HarnessError(RuntimeError):
    pass


def _worker(name, seed, work, inputs_dir, mode, seconds=0.0):
    cmd = [sys.executable, WORKER, name, str(seed), work, inputs_dir, mode,
           repr(seconds)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} of {name} took over {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"{mode} of {name} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def bench(name, seed, seconds, trace):
    """All solves of one workload; returns the run record."""
    import oracle
    import reference
    import tracer
    import workloads

    run_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs_dir = os.path.join(run_dir, "inputs")
    os.makedirs(inputs_dir)
    if name in workloads.STATIONARY:
        nx = workloads.STATIONARY[name]["nx"]
        amp = workloads.mms_amplitude(seed)
        oracle.write_stationary_inputs(nx, amp, inputs_dir)

        def check(out):
            return oracle.check_stationary(out, inputs_dir, amp)
    else:
        config, data = workloads.build_evolve(name, seed)

        def check(out):
            return oracle.check_evolve(out, data, config.t_end)

    # fills the bytecode and file caches; not counted
    _worker(name, seed, run_dir, inputs_dir, "setup")

    procs, reps = [], []
    for k in range(PROCESSES):
        mode = "traced" if trace and k % 2 else "solve"
        work = os.path.join(run_dir, f"proc{k}")
        proc = _worker(name, seed, work, inputs_dir, mode, seconds / PROCESSES)
        proc["mode"] = mode
        for i, rep in enumerate(proc.pop("solves")):
            rep["mode"] = mode
            # the host's speed around the solve: the kernel before and after
            ref_s = 0.5 * (proc["ref_s"][i] + proc["ref_s"][i + 1])
            rep["scaled_s"] = reference.scale(rep["wall_s"], ref_s)
            out = os.path.join(work, f"rep{i}")
            rep["failures"] = [rep["error"]] if "error" in rep else check(out)
            if mode == "traced" and "error" not in rep:
                spans = tracer.load_spans(os.path.join(work, f"spans{i}.jsonl"))
                rep["layers"] = tracer.layer_metrics(spans)
            reps.append(rep)
        shutil.rmtree(work)
        procs.append(proc)

    plain = [r for r in reps if r["mode"] == "solve"]
    traced = [r for r in reps if "layers" in r]
    # a traced process imports numpy before its set-up clock starts
    setups = [p for p in procs if p["mode"] == "solve"]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(name, seed, run_dir, inputs_dir, "setup"))
    for p in setups:
        p["setup_scaled_s"] = reference.scale(p["setup_s"], p["ref_s"][0])

    e2e = {
        "wall_s": _median([r["scaled_s"] for r in plain]),
        "setup_s": _median([p["setup_scaled_s"] for p in setups]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in procs if p["mode"] == "solve"]),
    }
    measured = {
        "wall_s": _median([r["wall_s"] for r in plain]),
        "setup_s": _median([p["setup_s"] for p in setups]),
    }
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = _median([r["layers"][key] for r in traced])
        layers["trace.overhead_frac"] = (
            _median([r["scaled_s"] for r in traced]) / e2e["wall_s"] - 1.0)
    return {
        "workload": name,
        "seed": seed,
        "kernel": procs[0]["kernel"],
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["failures"]),
        "end_to_end": e2e,
        "measured": measured,
        "setup_samples": [p["setup_scaled_s"] for p in setups],
        "per_layer": layers,
        "processes": procs,
        "solves": reps,
    }


def _git_sha():
    if not os.path.isdir(".git"):
        return "unavailable: not a git checkout"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unavailable: {e}"
    return proc.stdout.strip() or "unavailable"


def _source_sha256():
    """Hash of oddflow's sources, which names the code where git cannot."""
    h = hashlib.sha256()
    root = os.path.join("src", "oddflow")
    for fname in sorted(os.listdir(root)):
        if fname.endswith((".py", ".pyx", ".c")):
            h.update(fname.encode())
            with open(os.path.join(root, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(seed, kernel):
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "kernel": kernel,
    }


def report(record, trace):
    """Print the record for a reader; return the contract's result object."""
    e2e, layers = record["end_to_end"], record["per_layer"]
    plain = [r for r in record["solves"] if r["mode"] == "solve"]
    print(f"== {record['workload']}  seed {record['seed']}  kernel {record['kernel']}"
          f"  {record['attempted']} solves ({len(plain)} untraced)")
    for key, unit in END_TO_END.items():
        print(f"  {key:<30} {e2e[key]:>14.6g} {unit}")
    for key, value in record["measured"].items():
        print(f"  {key + ' as measured':<30} {value:>14.6g} s")
    print(f"  {'fail_rate':<30} {record['failed'] / record['attempted']:>14.6g}"
          f" ({record['failed']} of {record['attempted']})")
    for r in record["solves"]:
        for msg in r["failures"]:
            print(f"  FAILED {r['mode']}: {msg}")
    units, values = END_TO_END, e2e
    if trace:
        # the layers read 0 when no traced solve succeeded
        units, values = PER_LAYER, {key: layers.get(key, 0.0) for key in PER_LAYER}
        for key, unit in units.items():
            print(f"  {key:<30} {values[key]:>14.6g} {unit}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "oddflow", "__init__.py")):
        print("run.py: no src/oddflow here; run from the root of an oddflow "
              "checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:       # before numpy is first imported
        os.environ[var] = str(THREADS)
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in workloads.NAMES]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.NAMES)} or all")
    results = {}
    for name in names:        # one after another, never concurrently
        try:
            record = bench(name, args.seed, args.seconds, args.trace)
        except HarnessError as e:
            print(f"run.py: {e}", file=sys.stderr)
            return 2
        record["provenance"] = provenance(args.seed, record["kernel"])
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
        print("provenance " + json.dumps(record["provenance"]))
        results[name] = report(record, args.trace)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
