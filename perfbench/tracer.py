"""Span tracer applied from outside the program.

`Tracer.wrap` replaces a public function in its module's namespace with a
wrapper that records one span per call: id, parent id, name, start and
end.  Callers inside oddflow resolve these names through their module
globals at call time, so the wrappers see every internal call as well.
`Tracer.count_ffts` wraps the 2D (and n-D) transforms of `numpy.fft` and
`scipy.fft` and charges each call to the innermost open span, counting
one transform per 2D plane of a batched call.  Spans stay in memory
until `dump` writes them out; `layer_metrics` turns them into per-layer
self times and counts.
"""

from __future__ import annotations

import functools
import json
import math
import time

_ID, _PARENT, _NAME, _START, _END, _FFTS, _ATTRS = range(7)

_FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2")
_FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn")


def _planes(args, kwargs, two_d):
    """Number of independent transforms in a call: the product of the
    sizes of the axes that are not transformed."""
    shape = getattr(args[0], "shape", ())
    if not shape:
        return 1
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        s = kwargs.get("s", args[1] if len(args) > 1 else None)
        if two_d:
            axes = (-2, -1)
        elif s is not None:
            axes = range(-len(s), 0)
        else:
            return 1
    done = {a % len(shape) for a in axes}
    return math.prod(n for i, n in enumerate(shape) if i not in done)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.replaced = []

    def open(self, name):
        rec = [len(self.spans), self.stack[-1][_ID] if self.stack else -1,
               name, self.clock(), None, 0, None]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def close(self, rec):
        rec[_END] = self.clock()
        self.stack.pop()

    def wrap(self, module, attr, attrs=None):
        """Trace calls of `module.attr` as spans named after the module.

        `attrs(args, kwargs)` may return a dict stored on the span.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__.removeprefix('oddflow.')}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            if attrs is not None:
                rec[_ATTRS] = attrs(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)

        self._replace(module, attr, traced)

    def _replace(self, module, attr, new):
        self.replaced.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def restore(self):
        """Put back every function this tracer replaced."""
        while self.replaced:
            module, attr, fn = self.replaced.pop()
            setattr(module, attr, fn)

    def count_ffts(self):
        """Count the 2D transforms issued through numpy.fft and scipy.fft.

        Install this before the program is imported, so that names the
        program binds at import time are the counting wrappers too.
        """
        import numpy.fft
        import scipy.fft

        for module in (numpy.fft, scipy.fft):
            for names, two_d in ((_FFT_2D, True), (_FFT_ND, False)):
                for attr in names:
                    self._replace(module, attr,
                                  self._fft_counter(getattr(module, attr), two_d))

    def _fft_counter(self, fn, two_d):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.stack:
                self.stack[-1][_FFTS] += _planes(args, kwargs, two_d)
            return fn(*args, **kwargs)

        return counted

    def dump(self, path):
        """Write the spans as JSON lines."""
        keys = ("id", "parent", "name", "start", "end", "ffts", "attrs")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def load_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def by_name(spans):
    """Per span name: calls, inclusive and self seconds, inclusive FFT
    count, and the summed numeric attributes.

    A span's self time is its duration minus that of its children; the
    wrapped calls run on one thread, so children never overlap.
    """
    incl = {s["id"]: s["end"] - s["start"] for s in spans}
    self_s = dict(incl)
    ffts = {s["id"]: s["ffts"] for s in spans}
    for s in sorted(spans, key=lambda s: s["id"], reverse=True):
        if s["parent"] >= 0:
            self_s[s["parent"]] -= incl[s["id"]]
            ffts[s["parent"]] += ffts[s["id"]]
    out = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                         "ffts": 0, "attrs": {}})
        agg["calls"] += 1
        agg["incl_s"] += incl[s["id"]]
        agg["self_s"] += self_s[s["id"]]
        agg["ffts"] += ffts[s["id"]]
        for k, v in (s["attrs"] or {}).items():
            agg["attrs"][k] = agg["attrs"].get(k, 0) + v
    return out


ROOT = "bench.solve"

# Layers whose times partition the traced solve: every wrapped span's
# self time lands in exactly one of them.
PARTITION = (
    "semilag.advect_s", "evolve.pressure_s", "evolve.step_self_s",
    "evolve.recover_self_s", "evolve.run_self_s",
    "stationary.solve_s", "stationary.assemble_s", "stationary.rhs_s",
    "stationary.embed_s", "stationary.self_s", "io.write_s",
)


def layer_metrics(spans):
    """Per-layer metrics of one traced solve, from its spans."""
    agg = by_name(spans)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "ffts": 0, "attrs": {}}

    def get(name):
        return agg.get(name, empty)

    interp = get("semilag.interp_bicubic")
    points = interp["attrs"].get("points", 0)
    step = get("evolve.step")
    steps = step["calls"]
    pressure = get("evolve.solve_pressure")
    spsolve = get("stationary.spsolve")
    m = {
        "semilag.advect_s": get("evolve.advect_scalar")["incl_s"],
        "semilag.interp_points": points,
        "semilag.ns_per_point": 1e9 * interp["incl_s"] / points if points else 0.0,
        "evolve.pressure_s": pressure["incl_s"],
        "evolve.pressure_calls": pressure["calls"],
        "evolve.pressure_ffts": pressure["ffts"],
        "evolve.step_self_s": step["self_s"],
        "evolve.recover_self_s": get("evolve.recover_pressure")["self_s"],
        "evolve.run_self_s": get("evolve.run")["self_s"],
        "evolve.steps": steps,
        "evolve.ms_per_step": 1e3 * step["incl_s"] / steps if steps else 0.0,
        "fields.ffts_per_step": step["ffts"] / steps if steps else 0.0,
        "stationary.picard_iterations": spsolve["calls"],
        "stationary.solve_s": spsolve["incl_s"],
        "stationary.assemble_s": (get("stationary.assemble_L")["incl_s"]
                                  + get("stationary.assemble_A")["incl_s"]),
        "stationary.rhs_s": get("stationary.nonlinear_rhs")["incl_s"],
        "stationary.embed_s": get("stationary.clamped_embedding")["incl_s"],
        "stationary.self_s": get("stationary.picard_solve")["self_s"],
        "stationary.matrix_nnz": (spsolve["attrs"].get("nnz", 0) / spsolve["calls"]
                                  if spsolve["calls"] else 0.0),
        "io.write_s": get("io.write_field")["incl_s"] + get("io.write_csv")["incl_s"],
    }
    wall = get(ROOT)["incl_s"]
    m["trace.wall_s"] = wall
    m["trace.accounted_frac"] = sum(m[k] for k in PARTITION) / wall if wall else 0.0
    return m
