"""Run one sfwm CLI command in-process with span and count hooks.

    python3 perfbench/trace_cmd.py RESULT.json <sfwm args>

The parent (perfbench/run.py) starts one such process per command, with
PYTHONPATH pointing at the sources under test.  The cold import of
`sfwm.cli` is timed first, then every hooked name is replaced in each
`sfwm` module namespace that binds it, `sfwm.cli.main` runs, and the
aggregated spans and counts go to RESULT.json.  Result files and stdout are
the CLI's own, so the parent can compare them with an untraced run.

When the command made a `jsa_numeric` call, the cost of its built-in
convergence check is then measured untraced at the same working point (see
check_cost).
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

perf = time.perf_counter

# (metric prefix, defining module, attribute, scope).  Scope "all" patches
# every sfwm namespace that binds the object, because the CLI and the config
# module import names directly; "module" patches only that module's binding,
# so that a kernel shared with other layers is counted where it is the
# quadrature's kernel.
HOOKS = [
    ("materials.refractive_index", "sfwm.materials", "refractive_index", "all"),
    ("modes.effective_index", "sfwm.modes", "effective_index", "all"),
    ("dispersion.build_profile", "sfwm.dispersion", "build_profile", "all"),
    ("dispersion.find_zdfs", "sfwm.dispersion", "find_zdfs", "all"),
    ("dispersion.find_fgvm_points", "sfwm.dispersion", "find_fgvm_points", "all"),
    ("dispersion.k_derivative", "sfwm.dispersion", "DispersionProfile.k_derivative", "all"),
    ("config.load_preset", "sfwm.config", "load_preset", "all"),
    ("config.load_config", "sfwm.config", "load_config", "all"),
    ("config.resolve_pump", "sfwm.config", "resolve_pump", "all"),
    ("phasematching.pm_map", "sfwm.phasematching", "pm_map", "all"),
    ("phasematching.trace_contours", "sfwm.phasematching", "trace_contours", "all"),
    ("phasematching.singles_spectrum", "sfwm.phasematching", "singles_spectrum", "all"),
    ("biphoton.jsa_numeric", "sfwm.biphoton", "jsa_numeric", "all"),
    ("biphoton.jsa_analytic", "sfwm.biphoton", "jsa_analytic", "all"),
    ("biphoton.schmidt_metrics", "sfwm.biphoton", "schmidt_metrics", "all"),
    ("biphoton.leggauss", "sfwm.biphoton", "leggauss", "module"),
    ("biphoton.sinc_phase", "sfwm.biphoton", "sinc_phase", "module"),
]

JSA = "biphoton.jsa_numeric"
SPLIT_STRIDE = 4
SPLIT_REPEATS = 3


def _size(x):
    import numpy as np

    return int(np.size(x))


class Recorder:
    """Spans kept in memory: per name the calls, inclusive and self time."""

    def __init__(self):
        self.stack = []  # [name, time covered by direct children]
        self.spans = {}
        self.counts = {}
        self.jsa_call = None  # (function, bound arguments) of the first call

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self.stack.pop()
                span = self.spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                span["calls"] += 1
                span["s"] += dt
                span["self_s"] += dt - frame[1]
                if self.stack:
                    self.stack[-1][1] += dt
            if count is not None:
                count(self, fn, args, kwargs, result)
            return result

        return hooked

    def inside(self, name):
        return any(frame[0] == name for frame in self.stack)


def _count_points(key, arg):
    def count(rec, fn, args, kwargs, result):
        rec.add(key, _size(args[arg]))

    return count


def _count_vertices(rec, fn, args, kwargs, result):
    rec.add("phasematching.trace_contours.vertices", sum(len(c.points) for c in result))


def _count_kernel(rec, fn, args, kwargs, result):
    n = _size(args[0])
    rec.add("biphoton.sinc_phase.points", n)
    if rec.inside(JSA):
        rec.add("biphoton.quad.integrand_points", n)


def _count_jsa(rec, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    nodes = int(bound.arguments["nodes"])
    rec.counts["biphoton.jsa_numeric.nodes"] = max(
        rec.counts.get("biphoton.jsa_numeric.nodes", 0), nodes
    )
    if rec.jsa_call is None:
        rec.jsa_call = (fn, bound)


_COUNTERS = {
    "modes.effective_index": _count_points("modes.effective_index.points", 1),
    "dispersion.k_derivative": _count_points("dispersion.k_derivative.points", 1),
    "phasematching.trace_contours": _count_vertices,
    "biphoton.sinc_phase": _count_kernel,
    JSA: _count_jsa,
}


def install(rec):
    """Patch every hook target; return (undo list, names whose target is gone)."""
    undo, missing = [], []
    namespaces = [m for n, m in list(sys.modules.items()) if n == "sfwm" or n.startswith("sfwm.")]
    for name, modname, attr, scope in HOOKS:
        try:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapper = rec.wrap(name, original)
        if path or scope == "module":
            targets = [(owner, leaf)]
        else:
            targets = [
                (ns, key) for ns in namespaces for key, val in list(vars(ns).items())
                if val is original
            ]
        for ns, key in targets:
            setattr(ns, key, wrapper)
            undo.append((ns, key, original))
    return undo, missing


def check_cost(fn, bound):
    """Seconds that jsa_numeric's convergence check adds at a call's working point.

    Public calls only: check=True minus check=False, alternated and compared
    as medians.  Every SPLIT_STRIDE-th point of the call's axes keeps the
    check's subgrid size and node count but makes the main grid cheap, so the
    difference is not lost in the run-to-run noise of the full grid.
    """
    args = dict(bound.arguments)
    args["signal_axis"] = args["signal_axis"][::SPLIT_STRIDE]
    args["idler_axis"] = args["idler_axis"][::SPLIT_STRIDE]
    times = {True: [], False: []}
    for _ in range(SPLIT_REPEATS):
        for check in (True, False):
            args["check"] = check
            t0 = perf()
            fn(**args)
            times[check].append(perf() - t0)
    return statistics.median(times[True]) - statistics.median(times[False])


def main(argv):
    result_path, cli_argv = argv[0], argv[1:]

    t0 = perf()
    import sfwm.cli

    import_s = perf() - t0

    rec = Recorder()
    undo, missing = install(rec)
    code = rec.wrap("cli.main", sfwm.cli.main)(cli_argv)
    for ns, key, original in undo:
        setattr(ns, key, original)

    check_s = None
    t0 = perf()
    if rec.jsa_call is not None and code == 0:
        check_s = check_cost(*rec.jsa_call)
    split_s = perf() - t0

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit": code,
                "import_s": import_s,
                "spans": rec.spans,
                "counts": rec.counts,
                "missing": missing,
                "check_s": check_s,
                "split_s": split_s,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
